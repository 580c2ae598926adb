(** MG-like benchmark: 2-D Poisson multigrid V-cycles (the numerical
    character of NAS MG).

    Weighted-Jacobi smoothing, 5-point residual, full-weighting restriction
    and bilinear prolongation over a grid hierarchy down to 3×3, driven by
    per-level offset tables. Output: the final fine-grid residual norm.

    Multigrid is the paper's "moderately replaceable" case: coarse-grid work
    tolerates single precision (the fine-grid smoothing corrects it), while
    fine-grid residual/smoothing arithmetic does not, at the verification
    tolerance used. *)

val make : Kernel.class_ -> Kernel.t

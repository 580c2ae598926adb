(** LU-like benchmark: SSOR sweeps on a nonsymmetric 2-D
    convection-diffusion system (the numerical character of NAS LU's SSOR
    solver).

    A fixed number of forward+backward Gauss-Seidel relaxation sweeps is
    applied from a zero initial guess; verification compares the resulting
    field against the double-precision reference field in relative
    infinity norm. Because the iteration is cut off before full
    convergence, single-precision perturbations are only partially
    contracted — the paper's LU is the "mostly replaceable but fragile
    union" case (lu.W fails final verification, lu.A passes). *)

val make : Kernel.class_ -> Kernel.t

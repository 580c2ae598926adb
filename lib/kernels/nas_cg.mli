(** CG-like benchmark: the NAS CG power-method/conjugate-gradient kernel on
    a random sparse SPD matrix.

    Each outer iteration runs a fixed number of (unpreconditioned) CG steps
    on [A z = x], computes [zeta = shift + 1/(x·z)], and renormalizes
    [x = z/||z||]. Output: [zeta; final residual norm]. Verification is the
    NAS-style tight check [|zeta - zeta_ref| <= 1e-10], which makes the hot
    solver numerically sensitive — the paper's CG shows exactly this
    profile (high static replacement on cold code, very low dynamic
    replacement). *)

val make : Kernel.class_ -> Kernel.t

(** BT-like benchmark: independent block-tridiagonal line solves with 3×3
    blocks (the numerical character of NAS BT's line-implicit solver).

    Each of M lines of length L carries a diagonally-dominant block
    tridiagonal system assembled host-side from a known solution; the
    binary runs the block Thomas algorithm (explicit 3×3 inversion by
    adjugate, block updates, back-substitution) and the verification
    routine checks the recovered solution against the known one in
    relative infinity norm. The tolerance sits near single precision's
    achievable error — the paper's BT is the case where large fractions
    pass individually but the composed union is fragile (bt.W fails
    final verification). *)

val make : Kernel.class_ -> Kernel.t

(** EP-like benchmark: embarrassingly-parallel random-pair generation with
    Box–Muller Gaussian tallies (the numerical character of NAS EP).

    Random numbers come from a NAS-style [randlc] linear congruential
    generator implemented {e in floating point} inside the binary — the
    classic "unusual construct" the paper's [ignore] flag exists for: its
    exact double arithmetic breaks catastrophically (not gracefully) in
    single precision, so the kernel ships with an [Ignore] hint on the
    [randlc] function.

    Outputs: [sx; sy; q0..q9] (Gaussian sums and annulus counts).
    Verification: sums within 1e-6 relative, counts exact. *)

val randlc : float -> float -> float * float
(** [randlc x a] is one step of the NAS-style floating-point LCG:
    [(next_state, uniform_in_0_1)]. Host reference, bit-identical to the
    binary's [randlc] function. *)

val make : Kernel.class_ -> Kernel.t

//! Golden digest of a small Fig. 2 Monte-Carlo run.
//!
//! `fig2::run` goes through every layer a numerics change can disturb: the
//! `fastmath` kernels, the drain-current model, the `BatchSim` integrator
//! and the trace measurements. The pinned value below is the FNV-1a digest
//! of the bits of every delay sample plus both disturb z-scores, so any
//! drift in those layers fails `cargo test`, in the native build as in a
//! portable one (`--config 'build.rustflags=[]'`).

use bpimc_bench::experiments::fig2;

/// FNV-1a over the bits of the delays (WLUD then proposed) and the two
/// z-scores.
fn digest(r: &fig2::Fig2Result) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in r
        .wlud_delays
        .iter()
        .chain(&r.prop_delays)
        .chain([&r.wlud_z, &r.prop_z])
    {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

#[test]
fn fig2_digest_is_pinned() {
    let r = fig2::run(32, 7);
    assert_eq!(r.wlud_delays.len(), 32);
    assert_eq!(r.prop_delays.len(), 32);
    let got = digest(&r);
    assert_eq!(
        got, 0x9db2_7f06_7272_a82a,
        "fig2::run(32, 7) digest {got:#018x}"
    );
}

//! Canary for the determinism contract's one outside assumption: the
//! platform libm.
//!
//! Every arrival gap goes through `f64::ln` and every Zipf user draw
//! through `f64::powf`. IEEE 754 does not require either to be correctly
//! rounded, so a different libm (a toolchain or platform change) may move
//! a last bit, and one moved bit surfaces as dozens of artifact diffs far
//! from the cause. This test pins a few draws and raw results as exact
//! values so that such a change fails here first, with one message that
//! names the cause.

use std::hint::black_box;

use venice_loadgen::arrival::exponential;
use venice_sim::{SimRng, Time};
use venice_workloads::ZipfSampler;

const SEED: u64 = 0x11B3;

#[test]
fn ln_and_powf_match_the_pinned_platform_values() {
    let mut rng = SimRng::seed(SEED);
    let gaps_ps: Vec<u64> = (0..4)
        .map(|_| exponential(&mut rng, Time::from_us(10)).as_ps())
        .collect();
    let zipf = ZipfSampler::new(1_000_000, 0.99);
    let mut rng = SimRng::seed(SEED);
    let ranks: Vec<u64> = (0..6).map(|_| zipf.sample(&mut rng)).collect();
    // `black_box` keeps the compiler from folding these at build time:
    // the runtime libm is what the simulations call.
    let ln_bits: Vec<u64> = [0.3f64, 2.5, 1e-9]
        .iter()
        .map(|&x| black_box(x).ln().to_bits())
        .collect();
    let powf_bits: Vec<u64> = [(7.0f64, 0.99), (0.5, 0.99), (1234.5, -0.37)]
        .iter()
        .map(|&(b, e)| black_box(b).powf(black_box(e)).to_bits())
        .collect();

    let observed = (gaps_ps, ranks, ln_bits, powf_bits);
    let pinned = (
        vec![14_313_152, 3_535_958, 6_944_455, 7_518_752],
        vec![36_460, 42, 868, 1_304, 221, 4_235],
        vec![
            0xbff3_4378_fcbd_a721,
            0x3fed_5240_f0e0_e078,
            0xc034_b927_f32b_ffb8,
        ],
        vec![
            0x401b_75dd_91ca_a8cd,
            0x3fe0_1c7d_6c40_4f0c,
            0x3fb2_61be_4410_c866,
        ],
    );
    assert!(
        observed == pinned,
        "libm drift: byte identity of every committed artifact assumes the platform \
         libm, and this platform's `ln`/`powf` return different bits\n  observed \
         {observed:x?}\n  pinned   {pinned:x?}"
    );
}

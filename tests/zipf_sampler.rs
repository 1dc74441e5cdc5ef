//! Zipf sampler equivalence: `Zipf::new(n, θ).sample` must reproduce the
//! original per-draw sampler rank for rank *and* leave the `DetRng` in the
//! same state. Generators interleave Zipf draws with `chance` and
//! `gen_range_u64`, so a single extra or missing draw would shift every later
//! access of a trace.
//!
//! The application traces are pinned too: FNV-1a digests of
//! `AppModel::generate` for every `AppKind` at 2 MiB (512 pages, the exact-ζ
//! branch) and 8 MiB (2048 pages, the head-plus-tail branch) over two seeds,
//! recorded from the per-draw sampler.

use leap_repro::leap_sim_core::rng::Zipf;
use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_sim_core::DetRng;
use leap_repro::leap_workloads::{AccessTrace, AppKind, AppModel};

/// The original sampler, which recomputed ζ(n, θ) on every draw. Kept
/// verbatim as the reference the precomputed sampler must match.
fn reference_zipf(rng: &mut DetRng, n: usize, theta: f64) -> usize {
    assert!(n > 0, "zipf requires n > 0");
    if n == 1 {
        return 0;
    }
    let theta = theta.clamp(0.0001, 0.9999);
    let zeta2 = 1.0 + 0.5f64.powf(theta);
    let zetan = reference_zeta_approx(n, theta);
    let alpha = 1.0 / (1.0 - theta);
    let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
    let u = rng.next_f64();
    let uz = u * zetan;
    if uz < 1.0 {
        return 0;
    }
    if uz < 1.0 + 0.5f64.powf(theta) {
        return 1;
    }
    let rank = (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as usize;
    rank.min(n - 1)
}

fn reference_zeta_approx(n: usize, theta: f64) -> f64 {
    if n <= 1024 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=1024).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let tail = ((n as f64).powf(1.0 - theta) - 1024f64.powf(1.0 - theta)) / (1.0 - theta);
        head + tail
    }
}

const THETAS: [f64; 5] = [0.0, 0.7, 0.85, 0.99, 1.0];
const SEEDS: [u64; 3] = [1, 42, 0xDEAD_BEEF];
const DRAWS: usize = 10_000;

fn assert_matches_reference(n: usize) {
    for theta in THETAS {
        let zipf = Zipf::new(n, theta);
        for seed in SEEDS {
            let mut fast = DetRng::seed_from(seed);
            let mut reference = DetRng::seed_from(seed);
            for draw in 0..DRAWS {
                let got = zipf.sample(&mut fast);
                let want = reference_zipf(&mut reference, n, theta);
                assert_eq!(
                    got, want,
                    "n={n} theta={theta} seed={seed}: rank differs at draw {draw}"
                );
            }
            assert_eq!(
                format!("{fast:?}"),
                format!("{reference:?}"),
                "n={n} theta={theta} seed={seed}: rng state differs after {DRAWS} draws"
            );
        }
    }
}

#[test]
fn zipf_matches_reference_n1() {
    assert_matches_reference(1);
}

#[test]
fn zipf_matches_reference_n2() {
    assert_matches_reference(2);
}

#[test]
fn zipf_matches_reference_n3() {
    assert_matches_reference(3);
}

#[test]
fn zipf_matches_reference_n512() {
    assert_matches_reference(512);
}

#[test]
fn zipf_matches_reference_n1024() {
    assert_matches_reference(1024);
}

#[test]
fn zipf_matches_reference_n1025() {
    assert_matches_reference(1025);
}

#[test]
fn zipf_matches_reference_n2048() {
    assert_matches_reference(2048);
}

#[test]
fn zipf_matches_reference_n8192() {
    assert_matches_reference(8192);
}

/// FNV-1a over the trace name and every access's page, write flag and
/// compute time.
fn trace_digest(trace: &AccessTrace) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    fold(trace.name().as_bytes());
    for a in trace.accesses() {
        fold(&a.page.to_le_bytes());
        fold(&[u8::from(a.is_write)]);
        fold(&a.compute.as_nanos().to_le_bytes());
    }
    h
}

const TRACE_ACCESSES: usize = 20_000;

/// (kind, working set in MiB, seed, digest) recorded from the per-draw
/// sampler.
const PINNED_DIGESTS: [(AppKind, u64, u64, u64); 16] = [
    (AppKind::PowerGraph, 2, 1, 0x6707_E279_E144_9B7E),
    (AppKind::PowerGraph, 2, 7, 0x95F0_75B8_15F7_BE7D),
    (AppKind::PowerGraph, 8, 1, 0xB664_1BED_E3B3_C327),
    (AppKind::PowerGraph, 8, 7, 0xC9CF_C1DB_AC61_A430),
    (AppKind::NumPy, 2, 1, 0xED13_65FF_A806_D5DD),
    (AppKind::NumPy, 2, 7, 0x4538_2DAB_B017_22C2),
    (AppKind::NumPy, 8, 1, 0x8578_D943_108B_D1A0),
    (AppKind::NumPy, 8, 7, 0xB945_77F9_179E_D01F),
    (AppKind::VoltDb, 2, 1, 0x66DD_29A7_473F_1C83),
    (AppKind::VoltDb, 2, 7, 0x7E07_A643_1297_9D4C),
    (AppKind::VoltDb, 8, 1, 0x0CB1_EEDD_6D46_13B9),
    (AppKind::VoltDb, 8, 7, 0x78BB_8496_6DBA_F6CC),
    (AppKind::Memcached, 2, 1, 0x839F_D419_D4D2_9CEA),
    (AppKind::Memcached, 2, 7, 0x2904_2CF2_1F24_EF9D),
    (AppKind::Memcached, 8, 1, 0x8BF6_E263_B370_6F85),
    (AppKind::Memcached, 8, 7, 0xEDCF_425C_9AC2_2BFF),
];

#[test]
fn app_traces_are_byte_identical_to_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (kind, mib, seed, want) in PINNED_DIGESTS {
        let trace = AppModel::new(kind, seed)
            .with_working_set(mib * MIB)
            .with_accesses(TRACE_ACCESSES)
            .generate();
        assert_eq!(trace.len(), TRACE_ACCESSES);
        let got = trace_digest(&trace);
        if got != want {
            mismatches.push(format!(
                "(AppKind::{kind:?}, {mib}, {seed}, {got:#018X}) expected {want:#018X}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "trace digests moved:\n{}",
        mismatches.join("\n")
    );
}

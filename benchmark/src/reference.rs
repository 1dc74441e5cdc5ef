//! A fixed piece of host work that replays are timed against.
//!
//! Shared hosts change speed by tens of percent over minutes: other tenants
//! take cache, memory bandwidth and core time. Timing a fixed reference
//! kernel next to every replay and reporting the replay's time as a
//! multiple of the kernel's cancels the part of that drift both feel. The
//! kernel is built from the standard library only, so no change to the
//! repository's crates changes it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use crate::report::median;

/// Multiply-shift hashing, like the hash maps the simulator keys by page.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Entries in the first phase's table: 8 MiB of `u64`s.
const TABLE: usize = 1 << 20;
/// Keys of the first phase's hash map.
const WIDE_KEYS: u64 = 1 << 17;
const WIDE_STEPS: usize = 1 << 18;
/// Keys of the second phase's hash map, about a replay's resident pages.
const NARROW_KEYS: u64 = 1 << 14;
const NARROW_STEPS: usize = 400_000;
/// Zipf normalising sums of the third phase, and their terms.
const ZIPF_SUMS: u32 = 360;
const ZIPF_TERMS: u32 = 1024;
/// Logarithms of the third phase.
const LOG_STEPS: usize = 1_200_000;

/// The kernel's nominal time: about its median on the 2-core host the
/// benchmark was tuned on. Times measured against the kernel are reported
/// in seconds at this speed.
pub const NOMINAL_S: f64 = 0.03;

/// The median of `secs`, each divided by the mean of the kernel times
/// before and after it (`refs[i]` and `refs[i + 1]`), in seconds at the
/// kernel's nominal speed.
pub fn in_nominal_seconds(secs: &[f64], refs: &[f64]) -> f64 {
    let ratios: Vec<f64> = secs
        .iter()
        .zip(refs.windows(2))
        .map(|(s, r)| s * 2.0 / (r[0] + r[1]))
        .collect();
    median(&ratios) * NOMINAL_S
}

/// Runs the kernel once and returns its host seconds.
pub fn seconds() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(0x9e37_79b9_7f4a_7c15)));
    start.elapsed().as_secs_f64()
}

/// Three phases, the kinds of work the benchmark times. The first is bound
/// by cache misses: random writes to a table and inserts into a wide hash
/// map, like a replay's page tables. The second is bound by integer
/// compute: a narrow hash map hit again and again, with a log appended and
/// then sorted, like per-access bookkeeping and latency histograms. The
/// third is bound by floating point, like the Zipf sampling that dominates
/// trace generation. Each phase alone tracked some workloads' drift better
/// than others; together they track all of them.
fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0u64; TABLE];
    let mut map: HashMap<u64, u64, BuildHasherDefault<MulHasher>> = HashMap::default();
    let mut log = Vec::new();
    let mut acc = 0u64;
    for step in 0..WIDE_STEPS {
        let r = next();
        let slot = (r as usize) & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(r);
        let entry = map.entry((r >> 20) % WIDE_KEYS).or_insert(0);
        *entry += 1;
        acc = acc.wrapping_add(*entry);
        if step % 4 == 0 {
            log.push(r ^ acc);
        }
    }
    map.clear();
    for step in 0..NARROW_STEPS {
        let r = next();
        let entry = map.entry(r % NARROW_KEYS).or_insert(0);
        *entry += 1;
        acc = acc.wrapping_add(*entry);
        if step % 4 == 0 {
            log.push(r ^ acc);
        }
    }
    log.sort_unstable();
    let mut float = 0.0f64;
    for i in 0..ZIPF_SUMS {
        let theta = 0.5 + f64::from(i) * 1e-3;
        float += (1..=ZIPF_TERMS)
            .map(|k| f64::from(k).powf(-theta))
            .sum::<f64>();
    }
    for _ in 0..LOG_STEPS {
        float += ((next() >> 11) as f64 / (1u64 << 53) as f64).ln();
    }
    acc ^ log[log.len() / 2] ^ table[(acc as usize) & (TABLE - 1)] ^ float.to_bits()
}

//! Bit-identity checks between replays.
//!
//! `RunResult` holds its latency distributions as raw samples and has no
//! `PartialEq`, so a replay is reduced to a [`Fingerprint`]: every counter
//! and ledger as is, and every distribution as its sample count plus a hash
//! of its sorted samples. Serial and Threaded replays fold their shards in
//! one canonical order, but sorting keeps the comparison independent of it.

use std::collections::BTreeMap;

use leap::{PipelineStats, RunResult};
use leap_metrics::{CacheStats, LatencyHistogram, PrefetchOutcomes};
use leap_remote::{FaultInjectionStats, RecoveryStats, TenantRecovery};
use leap_service::{ServiceReport, TenantQosReport};

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A distribution reduced to its size and a hash of its sorted samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distribution {
    len: usize,
    hash: u64,
}

impl Distribution {
    fn of(histogram: &mut LatencyHistogram) -> Self {
        let samples = histogram.sorted_samples();
        let hash = samples
            .iter()
            .fold(FNV_SEED, |h, &s| (h ^ s).wrapping_mul(FNV_PRIME));
        Distribution {
            len: samples.len(),
            hash,
        }
    }
}

/// Everything a replay computed, in comparable form.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    labels: (String, String),
    counters: [u64; 5],
    prefetch: [u64; 3],
    cache_stats: CacheStats,
    prefetch_outcomes: PrefetchOutcomes,
    pipeline: PipelineStats,
    fault_stats: FaultInjectionStats,
    recovery_stats: RecoveryStats,
    tenant_evictions: BTreeMap<u32, u64>,
    tenant_recovery: BTreeMap<u32, TenantRecovery>,
    distributions: [Distribution; 5],
}

impl Fingerprint {
    pub fn of(r: &mut RunResult) -> Self {
        Fingerprint {
            labels: (r.config_label.clone(), r.workload.clone()),
            counters: [
                r.completion_time.as_nanos(),
                r.total_accesses,
                r.remote_accesses,
                r.first_touch_faults,
                r.pages_swapped_out,
            ],
            prefetch: [
                r.prefetch_stats.pages_prefetched(),
                r.prefetch_stats.prefetch_hits(),
                r.prefetch_stats.total_requests(),
            ],
            cache_stats: r.cache_stats,
            prefetch_outcomes: r.prefetch_outcomes,
            pipeline: r.pipeline,
            fault_stats: r.fault_stats,
            recovery_stats: r.recovery_stats,
            tenant_evictions: r.tenant_evictions.clone(),
            tenant_recovery: r.tenant_recovery.clone(),
            distributions: [
                Distribution::of(&mut r.remote_access_latency),
                Distribution::of(&mut r.access_latency),
                Distribution::of(&mut r.eviction_wait),
                Distribution::of(&mut r.allocation_wait),
                Distribution::of(r.prefetch_stats.timeliness()),
            ],
        }
    }
}

/// One replay's outcome: the engine result of every wave it ran, and the
/// per-tenant QoS reports when it ran through the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub waves: Vec<Fingerprint>,
    pub tenants: Vec<TenantQosReport>,
}

impl Outcome {
    pub fn of_result(result: &mut RunResult) -> Self {
        Outcome {
            waves: vec![Fingerprint::of(result)],
            tenants: Vec::new(),
        }
    }

    pub fn of_service(report: &mut ServiceReport) -> Self {
        Outcome {
            waves: report
                .waves
                .iter_mut()
                .map(|w| Fingerprint::of(&mut w.result))
                .collect(),
            tenants: report.tenant_reports().map(|(_, q)| q.clone()).collect(),
        }
    }
}

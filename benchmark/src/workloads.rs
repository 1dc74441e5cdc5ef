//! The benchmark's workloads: how each builds its inputs from a seed and
//! how it replays them, untraced or traced.
//!
//! Every workload simulates [`CORES`] cores, so the Threaded check starts
//! two threads. The seed makes the traces and nothing else: the simulator's
//! configuration, its own random seed included, is part of the system under
//! test and stays fixed. (Were the simulator seeded from the benchmark's
//! seed, its random deal of processes to cores would decide which traces
//! share a core, and with it most of the simulated completion time.)

use std::time::Instant;

use leap::prelude::*;
use leap::{FaultSpec, RecoveryPolicy, RunResult};
use leap_bench::tenant_figures::{service_config, TENANT_BUDGET_PAGES};
use leap_bench::EXPERIMENT_SEED;
use leap_mem::Pid;
use leap_service::{
    AdmissionPolicy, AdmissionReport, FarMemoryService, ServiceReport, TenantQos, TenantQosReport,
    TenantSpec,
};
use leap_sim_core::units::MIB;
use leap_sim_core::{DetRng, Nanos};
use leap_workloads::{sequential_trace, stride_trace, Access, AccessTrace, AppKind, AppModel};

use crate::check::Outcome;
use crate::layers::{self, TimedObserver};

/// Simulated cores of every workload.
pub const CORES: usize = 2;
/// Accesses per application of the Figure 11 mix (240K in all).
const APP_ACCESSES: usize = 60_000;
/// Working set per application of the Figure 11 mix.
const APP_WORKING_SET: u64 = 8 * MIB;
/// Sizes the synthetic scans like `TraceSource::SyntheticLarge`'s
/// `accesses_per_proc` (~0.96M accesses in all). Larger scans make each
/// replay so long that a run times only a few of them.
const SCAN_ACCESSES_PER_PROC: usize = 50_000;
/// Working set of each scan.
const SCAN_WORKING_SET: u64 = 16 * MIB;
/// Tenants registered with the service.
const TENANTS: usize = 8;
/// Accesses per tenant.
const TENANT_ACCESSES: usize = 30_000;
/// Working set per tenant: four times its budget, so every tenant pages.
const TENANT_WORKING_SET: u64 = 2 * MIB;
/// Async pipeline depth of the service.
const TENANT_ASYNC_DEPTH: usize = 8;
/// The storm runs `FaultSpec::storm_over`'s mix of spikes, degraded
/// bandwidth and reconnect storms at this many times the epochs, each this
/// many times shorter: the same share of the wave is faulted, but in more,
/// shorter pieces, so the simulated tail does not hinge on where a few long
/// epochs happen to land for one seed.
const STORM_SPLIT: u32 = 4;
/// Link-partition epochs in the storm. Partitions sever one (core shard,
/// machine) link each, and only links the wave actually uses produce
/// fail-fasts, so enough are drawn that every seed meets some.
const PARTITION_EPOCHS: u32 = 48;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AppMix,
    StreamScan,
    DvmmBaseline,
    TenantStorm,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::AppMix,
        Kind::StreamScan,
        Kind::DvmmBaseline,
        Kind::TenantStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AppMix => "app-mix",
            Kind::StreamScan => "stream-scan",
            Kind::DvmmBaseline => "dvmm-baseline",
            Kind::TenantStorm => "tenant-storm",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The Figure 11 mix: PowerGraph, NumPy, VoltDB and Memcached side by side.
fn app_mix(seed: u64) -> Vec<AccessTrace> {
    AppKind::ALL
        .iter()
        .map(|&kind| {
            AppModel::new(kind, seed)
                .with_working_set(APP_WORKING_SET)
                .with_accesses(APP_ACCESSES)
                .generate()
        })
        .collect()
}

/// The large synthetic scans of `TraceSource::SyntheticLarge`: a sequential,
/// a Stride-10, a sequential and a Stride-7 process over 16 MiB each, with
/// the same pass counts. The scans themselves have no randomness, so the
/// seed rotates each pass to start at a page drawn from it (wrapping
/// around the 16 MiB).
fn stream_scans(seed: u64) -> Vec<AccessTrace> {
    let mut rng = DetRng::seed_from(seed);
    let per_proc = SCAN_ACCESSES_PER_PROC;
    [
        (sequential_trace(SCAN_WORKING_SET, 1), 1 + per_proc / 4096),
        (stride_trace(SCAN_WORKING_SET, 10, 1), 1 + per_proc / 410),
        (sequential_trace(SCAN_WORKING_SET, 1), 1 + per_proc / 4096),
        (stride_trace(SCAN_WORKING_SET, 7, 1), 1 + per_proc / 586),
    ]
    .into_iter()
    .map(|(pass, passes)| {
        let pages = pass.working_set_pages();
        let mut accesses = Vec::with_capacity(pass.len() * passes);
        for _ in 0..passes {
            let shift = rng.gen_range_u64(0, pages);
            accesses.extend(pass.iter().map(|a| Access {
                page: (a.page + shift) % pages,
                ..*a
            }));
        }
        AccessTrace::new(pass.name(), accesses)
    })
    .collect()
}

/// Tenants drawn round-robin from the application mix, each with its own
/// seed, shaped like `tenant_figures::tenant_specs` (2 MiB working set, a
/// quarter of it as budget) but seeded from the benchmark's seed.
fn tenant_specs(seed: u64) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let kind = AppKind::ALL[i % AppKind::ALL.len()];
            let base = AppModel::new(kind, seed.wrapping_add(i as u64))
                .with_working_set(TENANT_WORKING_SET)
                .with_accesses(TENANT_ACCESSES)
                .generate();
            let trace = AccessTrace::new(
                format!("tenant{i}-{}", base.name()),
                base.iter().copied().collect(),
            );
            TenantSpec::new(trace, TENANT_BUDGET_PAGES)
        })
        .collect()
}

fn base_config(config: SimConfig) -> SimConfig {
    config
        .to_builder()
        .cores(CORES)
        .memory_fraction(0.5)
        .seed(EXPERIMENT_SEED)
        .replay_mode(ReplayMode::Serial)
        .build()
        .expect("benchmark configs are valid")
}

fn with_mode(config: SimConfig, mode: ReplayMode) -> SimConfig {
    SimConfig {
        replay_mode: mode,
        ..config
    }
}

/// A multi-process replay through `VmmSimulator::run_multi`.
pub struct Replay {
    config: SimConfig,
    traces: Vec<AccessTrace>,
    prepopulate: bool,
}

impl Replay {
    fn simulator(&self, setup: &SimSetup) -> VmmSimulator {
        let mut sim = VmmSimulator::from_setup(setup);
        sim.set_prepopulate_multi(self.prepopulate);
        sim
    }
}

/// Tenants admitted through the far-memory service under a fault storm.
pub struct Storm {
    config: SimConfig,
    specs: Vec<TenantSpec>,
    service: FarMemoryService,
    /// The admitted wave's traces and budgets, in pid order.
    wave: Vec<(AccessTrace, u64)>,
    refused_accesses: u64,
    pub fault: FaultSpec,
}

impl Storm {
    /// The service's admission plan.
    pub fn admission(&self) -> AdmissionReport {
        self.service.registry().admit()
    }

    fn service(config: SimConfig, specs: &[TenantSpec]) -> FarMemoryService {
        let capacity = specs.iter().map(|s| s.budget_pages).sum();
        let mut service = FarMemoryService::new(config, capacity, AdmissionPolicy::Reject);
        for spec in specs {
            service.register(spec.clone());
        }
        service
    }

    /// Replays the admitted wave from outside the service, the way the
    /// service does: budgets set per pid, QoS observed per tenant.
    fn wave_replay(&self, setup: &SimSetup, traced: bool) -> Raw {
        let mut sim = VmmSimulator::from_setup(setup);
        for (j, (_, budget)) in self.wave.iter().enumerate() {
            sim.set_tenant_budget_pages(Pid(j as u32 + 1), *budget);
        }
        let traces: Vec<AccessTrace> = self.wave.iter().map(|(t, _)| t.clone()).collect();
        let mut qos = TenantQos::new();
        let result = if traced {
            let mut timed = TimedObserver(&mut qos);
            sim.session().observe(&mut timed).run_multi(&traces)
        } else {
            sim.session().observe(&mut qos).run_multi(&traces)
        };
        Raw::Wave(result, qos.into_reports())
    }
}

/// A workload's inputs. A run holds one, so its size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Body {
    Replay(Replay),
    Storm(Storm),
}

/// A workload's inputs, built once per set-up.
pub struct Inputs {
    pub body: Body,
    /// Host seconds spent generating the traces.
    pub generate_s: f64,
}

/// What one replay returned, before it is reduced to an [`Outcome`].
pub enum Raw {
    Run(RunResult),
    Service(ServiceReport),
    Wave(RunResult, Vec<TenantQosReport>),
}

impl Raw {
    pub fn outcome(&mut self) -> Outcome {
        match self {
            Raw::Run(result) => Outcome::of_result(result),
            Raw::Service(report) => Outcome::of_service(report),
            Raw::Wave(result, tenants) => Outcome {
                tenants: tenants.clone(),
                ..Outcome::of_result(result)
            },
        }
    }

    /// The engine result of the (first) wave.
    pub fn result(&mut self) -> &mut RunResult {
        match self {
            Raw::Run(result) | Raw::Wave(result, _) => result,
            Raw::Service(report) => &mut report.waves[0].result,
        }
    }

    /// Simulated completion: the run's completion time, or the wave's
    /// makespan for the service.
    pub fn completion(&mut self) -> Nanos {
        match self {
            Raw::Service(report) => report.waves[0].makespan,
            other => other.result().completion_time,
        }
    }
}

impl Inputs {
    pub fn build(kind: Kind, seed: u64) -> Inputs {
        let start = Instant::now();
        let body = match kind {
            Kind::AppMix | Kind::DvmmBaseline => {
                let traces = app_mix(seed);
                let config = if kind == Kind::AppMix {
                    SimConfig::leap_defaults()
                } else {
                    SimConfig::linux_defaults()
                };
                Body::Replay(Replay {
                    config: base_config(config),
                    traces,
                    prepopulate: true,
                })
            }
            Kind::StreamScan => {
                let traces = stream_scans(seed);
                Body::Replay(Replay {
                    config: base_config(SimConfig::leap_defaults()),
                    traces,
                    prepopulate: true,
                })
            }
            Kind::TenantStorm => {
                let specs = tenant_specs(seed);
                let generated = start.elapsed().as_secs_f64();
                return Inputs {
                    body: Body::Storm(storm(specs)),
                    generate_s: generated,
                };
            }
        };
        Inputs {
            body,
            generate_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Accesses one replay attempts (refused tenants included).
    pub fn accesses(&self) -> u64 {
        match &self.body {
            Body::Replay(r) => r.traces.iter().map(|t| t.len() as u64).sum(),
            Body::Storm(s) => s.specs.iter().map(|s| s.trace.len() as u64).sum(),
        }
    }

    /// Accesses of tenants refused admission, per replay.
    pub fn refused_accesses(&self) -> u64 {
        match &self.body {
            Body::Replay(_) => 0,
            Body::Storm(s) => s.refused_accesses,
        }
    }

    /// Bytes held by the generated traces.
    pub fn trace_bytes(&self) -> u64 {
        self.accesses() * std::mem::size_of::<Access>() as u64
    }

    /// The replay the end-to-end numbers time: a fresh simulator over the
    /// traces, or a full `FarMemoryService::run`.
    pub fn replay(&self, mode: ReplayMode) -> Raw {
        match &self.body {
            Body::Replay(r) => {
                let setup = SimSetup::from_config(with_mode(r.config, mode))
                    .expect("benchmark configs are valid");
                Raw::Run(r.simulator(&setup).run_multi(&r.traces))
            }
            Body::Storm(s) if mode == ReplayMode::Serial => Raw::Service(s.service.run()),
            Body::Storm(s) => {
                Raw::Service(Storm::service(with_mode(s.config, mode), &s.specs).run())
            }
        }
    }

    /// The replay the traced run compares against: like [`Inputs::replay`]
    /// in Serial mode, except that the service's wave is replayed from
    /// outside the service.
    pub fn untraced(&self) -> Raw {
        match &self.body {
            Body::Replay(_) => self.replay(ReplayMode::Serial),
            Body::Storm(s) => {
                let setup = SimSetup::from_config(s.config).expect("benchmark configs are valid");
                s.wave_replay(&setup, false)
            }
        }
    }

    /// [`Inputs::untraced`] with every component behind the timing
    /// wrappers.
    pub fn traced(&self) -> Raw {
        match &self.body {
            Body::Replay(r) => {
                let setup = layers::traced_setup(r.config);
                Raw::Run(r.simulator(&setup).run_multi(&r.traces))
            }
            Body::Storm(s) => s.wave_replay(&layers::traced_setup(s.config), true),
        }
    }
}

/// Builds the storm: a healthy probe replay measures the wave's simulated
/// makespan, and the storm's onset window is set inside it, so faults land
/// throughout the wave whatever the seed.
fn storm(specs: Vec<TenantSpec>) -> Storm {
    let healthy = service_config(CORES, TENANT_ASYNC_DEPTH, ReplayMode::Serial);
    let probe = Storm::service(healthy, &specs).run();
    let makespan = probe.waves[0].makespan.as_nanos();
    let mut fault = FaultSpec::storm_over(
        Nanos::from_nanos(makespan / 10),
        Nanos::from_nanos(makespan * 9 / 10),
    );
    fault.latency_spikes *= STORM_SPLIT;
    fault.degraded_epochs *= STORM_SPLIT;
    fault.reconnect_storms *= STORM_SPLIT;
    fault.epoch = Nanos::from_nanos(fault.epoch.as_nanos() / u64::from(STORM_SPLIT));
    fault.partition_epochs = PARTITION_EPOCHS;
    let config = healthy
        .to_builder()
        .fault_plan(fault)
        .recovery_policy(RecoveryPolicy::tail_tolerant())
        .build()
        .expect("benchmark configs are valid");
    let service = Storm::service(config, &specs);
    let admission = service.registry().admit();
    let wave = admission.waves[0]
        .iter()
        .map(|&id| {
            let spec = service.registry().spec(id);
            (spec.trace.clone(), spec.budget_pages)
        })
        .collect();
    let refused_accesses = admission
        .rejected
        .iter()
        .map(|&id| service.registry().spec(id).trace.len() as u64)
        .sum();
    Storm {
        config,
        specs,
        service,
        wave,
        refused_accesses,
        fault,
    }
}

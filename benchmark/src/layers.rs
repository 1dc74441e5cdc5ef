//! Per-layer timing from outside the crates.
//!
//! The traced replay swaps the built-in prefetcher, data path and eviction
//! factories for wrappers (through `SimConfigBuilder::custom_*`) and puts
//! the service's QoS observer behind a timing [`Observer`]. Every wrapped
//! call is recorded as a span whose parent is the replay. Spans are folded
//! into one count and total time per layer as they close, so the trace
//! lives in a few words of memory and is read out when the replay ends.
//!
//! The wrappers forward every trait method, the provided ones included, so
//! the wrapped components make exactly the decisions and random draws of
//! the components they wrap: the traced `RunResult` is bit-identical to an
//! untraced one. The recorder is thread-local, so only Serial replays are
//! traced.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use leap::prelude::*;
use leap::RunResult;
use leap_datapath::{DataPath, PathLatency};
use leap_eviction::{CacheEvictor, EvictionReport};
use leap_mem::{CacheOrigin, SwapCache, SwapSlot};
use leap_prefetcher::{PageAddr, PrefetchDecision, Prefetcher};
use leap_remote::{FaultInjectionStats, RecoveryStats, TenantRecovery};
use leap_sim_core::{DetRng, Nanos};

/// A layer whose calls the traced replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Prefetcher,
    DataPath,
    Eviction,
    Observer,
}

impl Layer {
    const COUNT: usize = 4;

    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated spans of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSpans {
    pub calls: u64,
    pub total_ns: u64,
}

/// Work counts recorded at the wrapped boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub pages_suggested: u64,
    pub reads: u64,
    pub writes: u64,
    pub span_calls: u64,
    pub pages_read: u64,
    pub reclaim_calls: u64,
    pub pages_reclaimed: u64,
}

/// Everything one traced replay recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trace {
    pub layers: [LayerSpans; Layer::COUNT],
    pub counts: LayerCounts,
}

impl Trace {
    pub fn layer(&self, layer: Layer) -> LayerSpans {
        self.layers[layer.index()]
    }

    /// Time covered by all spans: their parent, the replay, minus this is
    /// the replay's self time.
    pub fn spans_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.total_ns).sum()
    }
}

#[derive(Default)]
struct Recorder {
    in_span: bool,
    trace: Trace,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Clears the recorder before a traced replay.
pub fn reset() {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::default());
}

/// The spans and counts recorded since the last [`reset`].
pub fn take() -> Trace {
    RECORDER.with(|r| r.borrow().trace)
}

fn count(update: impl FnOnce(&mut LayerCounts)) {
    RECORDER.with(|r| update(&mut r.borrow_mut().trace.counts));
}

/// Runs `f` as one span of `layer`, a child of the replay. No wrapped layer
/// calls another, so spans never nest and a span's self time is its whole
/// time; the recorder checks that this still holds.
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        let mut recorder = r.borrow_mut();
        assert!(!recorder.in_span, "a wrapped layer called another");
        recorder.in_span = true;
    });
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| {
        let mut recorder = r.borrow_mut();
        recorder.in_span = false;
        let spans = &mut recorder.trace.layers[layer.index()];
        spans.calls += 1;
        spans.total_ns += elapsed;
    });
    out
}

#[derive(Debug)]
struct TimedPrefetcher(Box<dyn Prefetcher>);

impl Prefetcher for TimedPrefetcher {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        let decision = span(Layer::Prefetcher, || self.0.on_fault(addr));
        let pages = decision.len() as u64;
        count(|c| c.pages_suggested += pages);
        decision
    }

    fn on_prefetch_hit(&mut self, addr: PageAddr) {
        span(Layer::Prefetcher, || self.0.on_prefetch_hit(addr))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn reset(&mut self) {
        self.0.reset()
    }
}

#[derive(Debug)]
struct TimedDataPath(Box<dyn DataPath>);

impl DataPath for TimedDataPath {
    fn read_page(&mut self, page_offset: u64, core: usize, now: Nanos) -> PathLatency {
        count(|c| c.reads += 1);
        span(Layer::DataPath, || self.0.read_page(page_offset, core, now))
    }

    fn write_page(&mut self, page_offset: u64, core: usize, now: Nanos) -> PathLatency {
        count(|c| c.writes += 1);
        span(Layer::DataPath, || {
            self.0.write_page(page_offset, core, now)
        })
    }

    fn read_span(
        &mut self,
        pages: &[u64],
        core: usize,
        now: Nanos,
        totals: &mut Vec<Nanos>,
    ) -> PathLatency {
        count(|c| {
            c.span_calls += 1;
            c.pages_read += pages.len() as u64;
        });
        span(Layer::DataPath, || {
            self.0.read_span(pages, core, now, totals)
        })
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn fault_stats(&self) -> FaultInjectionStats {
        self.0.fault_stats()
    }

    fn recovery_stats(&self) -> RecoveryStats {
        self.0.recovery_stats()
    }

    fn tenant_recovery(&self) -> Vec<(u32, TenantRecovery)> {
        self.0.tenant_recovery()
    }

    fn set_active_tenant(&mut self, tenant: u32) {
        self.0.set_active_tenant(tenant)
    }
}

#[derive(Debug)]
struct TimedEvictor(Box<dyn CacheEvictor>);

fn count_reclaim(report: &EvictionReport) {
    let freed = report.freed_total();
    count(|c| {
        c.reclaim_calls += 1;
        c.pages_reclaimed += freed;
    });
}

impl CacheEvictor for TimedEvictor {
    fn policy_name(&self) -> &'static str {
        self.0.policy_name()
    }

    fn frees_on_hit(&self) -> bool {
        self.0.frees_on_hit()
    }

    fn on_insert(&mut self, slot: SwapSlot, origin: CacheOrigin) {
        span(Layer::Eviction, || self.0.on_insert(slot, origin))
    }

    fn on_insert_span(&mut self, slots: &[SwapSlot], origin: CacheOrigin) {
        span(Layer::Eviction, || self.0.on_insert_span(slots, origin))
    }

    fn on_remove(&mut self, slot: SwapSlot) {
        span(Layer::Eviction, || self.0.on_remove(slot))
    }

    fn on_hit(&mut self, slot: SwapSlot, origin: CacheOrigin, cache: &mut SwapCache) -> bool {
        span(Layer::Eviction, || self.0.on_hit(slot, origin, cache))
    }

    fn on_hit_freed(&mut self, slot: SwapSlot) {
        span(Layer::Eviction, || self.0.on_hit_freed(slot))
    }

    fn make_space(&mut self, cache: &mut SwapCache, target: u64, now: Nanos) -> EvictionReport {
        let report = span(Layer::Eviction, || self.0.make_space(cache, target, now));
        count_reclaim(&report);
        report
    }

    fn background_reclaim(&mut self, cache: &mut SwapCache, now: Nanos) -> Option<EvictionReport> {
        let report = span(Layer::Eviction, || self.0.background_reclaim(cache, now));
        if let Some(report) = &report {
            count_reclaim(report);
        }
        report
    }

    fn has_background_reclaimer(&self) -> bool {
        self.0.has_background_reclaimer()
    }

    fn tracked_pages(&self) -> u64 {
        self.0.tracked_pages()
    }
}

#[derive(Debug)]
struct TimedPrefetcherFactory(Arc<dyn PrefetcherFactory>);

impl PrefetcherFactory for TimedPrefetcherFactory {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn build(&self, config: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(TimedPrefetcher(self.0.build(config)))
    }
}

#[derive(Debug)]
struct TimedDataPathFactory(Arc<dyn DataPathFactory>);

impl DataPathFactory for TimedDataPathFactory {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn build(&self, config: &SimConfig, rng: &mut DetRng) -> Box<dyn DataPath> {
        Box::new(TimedDataPath(self.0.build(config, rng)))
    }
}

#[derive(Debug)]
struct TimedEvictionFactory(Arc<dyn EvictionFactory>);

impl EvictionFactory for TimedEvictionFactory {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn build(&self, config: &SimConfig) -> Box<dyn CacheEvictor> {
        Box::new(TimedEvictor(self.0.build(config)))
    }
}

/// A setup running `config`'s built-in components behind the timing
/// wrappers.
pub fn traced_setup(config: SimConfig) -> SimSetup {
    let builtin = SimSetup::from_config(config).expect("benchmark configs are valid");
    let components = builtin.components();
    SimConfigBuilder::from_config(config)
        .custom_prefetcher(TimedPrefetcherFactory(components.prefetcher.clone()))
        .custom_data_path(TimedDataPathFactory(components.data_path.clone()))
        .custom_eviction(TimedEvictionFactory(components.eviction.clone()))
        .build_setup()
        .expect("benchmark configs are valid")
}

/// Times every call into the wrapped observer.
pub struct TimedObserver<'a>(pub &'a mut dyn Observer);

impl Observer for TimedObserver<'_> {
    fn on_event(&mut self, event: &FaultEvent) {
        span(Layer::Observer, || self.0.on_event(event))
    }

    fn on_batch(&mut self, events: &[FaultEvent]) {
        span(Layer::Observer, || self.0.on_batch(events))
    }

    fn on_complete(&mut self, result: &RunResult) {
        span(Layer::Observer, || self.0.on_complete(result))
    }
}

//! The per-layer ledger a traced run prints: one field per `per_layer`
//! metric of `BENCHMARK.json`. A workload fills the fields its layers
//! run and leaves the others at 0, so a bypassed layer reads as 0.

use crate::report::{ratio, Report};
use crate::stage::Layers;

/// Per-layer metric values of one traced run. Times are microseconds per
/// operation of the layer; counts are per round of the workload.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub jobs: f64,
    pub frontend_us: f64,
    pub frontend_src_kb_per_s: f64,
    pub prepare_us: f64,
    pub prepare_inlined_sites: f64,
    pub prepare_promoted_globals: f64,
    pub callgraph_us: f64,
    pub analysis_us: f64,
    pub analysis_memo_hit_ratio: f64,
    pub alloc_us: f64,
    pub alloc_memory_vregs: f64,
    pub alloc_split_vregs: f64,
    pub alloc_shrink_iterations: f64,
    pub lower_us: f64,
    pub lower_minsts: f64,
    pub driver_unattributed_us: f64,
    pub driver_waves: f64,
    pub driver_widest_wave: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_cutoffs: f64,
    pub pipeline_warm_compile_us: f64,
    pub pipeline_cold_compile_us: f64,
    pub service_dispatch_us: f64,
    pub service_frame_us: f64,
    pub service_asm_render_us: f64,
    pub service_response_kb: f64,
    pub service_warm_hit_ratio: f64,
    pub sim_us: f64,
    pub sim_minsts_per_s: f64,
    pub sim_insts: f64,
    pub sim_calls: f64,
    pub interp_us: f64,
    pub trace_overhead_us: f64,
    pub trace_replays: f64,
}

impl Ledger {
    /// Fills the compile layers from `l`, summed over `rounds` rounds:
    /// times per compile, counts per round.
    pub fn set_compile_layers(&mut self, l: &Layers, rounds: u64) {
        let n = l.compiles as f64;
        let r = rounds.max(1) as f64;
        self.frontend_us = ratio(l.frontend_us, n);
        self.frontend_src_kb_per_s = ratio(l.src_bytes as f64 / 1000.0, l.frontend_us / 1e6);
        self.prepare_us = ratio(l.prepare_us, n);
        self.callgraph_us = ratio(l.callgraph_us, n);
        self.analysis_us = ratio(l.analysis_us, n);
        self.alloc_us = ratio(l.alloc_us, n);
        self.lower_us = ratio(l.lower_us, n);
        self.prepare_inlined_sites = l.inlined_sites as f64 / r;
        self.prepare_promoted_globals = l.promoted_globals as f64 / r;
        self.alloc_memory_vregs = l.memory_vregs as f64 / r;
        self.alloc_split_vregs = l.split_vregs as f64 / r;
        self.alloc_shrink_iterations = l.shrink_iterations as f64 / r;
        self.lower_minsts = l.minsts as f64 / r;
        self.driver_waves = l.waves as f64 / r;
        self.driver_widest_wave = l.widest_wave as f64;
    }

    /// Appends every per-layer metric to `rep`, in `BENCHMARK.json` order.
    pub fn emit(&self, rep: &mut Report) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        rep.set("host.nproc", nproc as f64, "count");
        rep.set("driver.jobs", self.jobs, "count");
        rep.set("frontend.us", self.frontend_us, "us");
        rep.set("frontend.src_kb_per_s", self.frontend_src_kb_per_s, "kB/s");
        rep.set("prepare.us", self.prepare_us, "us");
        rep.set("prepare.inlined_sites", self.prepare_inlined_sites, "count");
        rep.set(
            "prepare.promoted_globals",
            self.prepare_promoted_globals,
            "count",
        );
        rep.set("callgraph.us", self.callgraph_us, "us");
        rep.set("analysis.us", self.analysis_us, "us");
        rep.set(
            "analysis.memo_hit_ratio",
            self.analysis_memo_hit_ratio,
            "ratio",
        );
        rep.set("alloc.us", self.alloc_us, "us");
        rep.set("alloc.memory_vregs", self.alloc_memory_vregs, "count");
        rep.set("alloc.split_vregs", self.alloc_split_vregs, "count");
        rep.set(
            "alloc.shrink_iterations",
            self.alloc_shrink_iterations,
            "count",
        );
        rep.set("lower.us", self.lower_us, "us");
        rep.set("lower.minsts", self.lower_minsts, "count");
        rep.set("driver.unattributed_us", self.driver_unattributed_us, "us");
        rep.set("driver.waves", self.driver_waves, "count");
        rep.set("driver.widest_wave", self.driver_widest_wave, "count");
        rep.set("cache.hits", self.cache_hits, "count");
        rep.set("cache.misses", self.cache_misses, "count");
        rep.set("cache.cutoffs", self.cache_cutoffs, "count");
        rep.set(
            "cache.hit_ratio",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            "ratio",
        );
        rep.set(
            "pipeline.warm_compile_us",
            self.pipeline_warm_compile_us,
            "us",
        );
        rep.set(
            "pipeline.cold_compile_us",
            self.pipeline_cold_compile_us,
            "us",
        );
        rep.set("service.dispatch_us", self.service_dispatch_us, "us");
        rep.set("service.frame_us", self.service_frame_us, "us");
        rep.set("service.asm_render_us", self.service_asm_render_us, "us");
        rep.set("service.response_kb", self.service_response_kb, "kB");
        rep.set(
            "service.warm_hit_ratio",
            self.service_warm_hit_ratio,
            "ratio",
        );
        rep.set("sim.us", self.sim_us, "us");
        rep.set("sim.minsts_per_s", self.sim_minsts_per_s, "Minst/s");
        rep.set("sim.insts", self.sim_insts, "count");
        rep.set("sim.calls", self.sim_calls, "count");
        rep.set("interp.us", self.interp_us, "us");
        rep.set("trace.overhead_us", self.trace_overhead_us, "us");
        rep.set("trace.replays", self.trace_replays, "count");
    }
}

//! The traced compile: `compile_module`'s serial path replayed layer by
//! layer through the public functions it calls, each call timed from
//! here. Nothing inside the compiler is instrumented, so the replay's
//! machine code is checked byte for byte against the real entry point,
//! and whatever the sum of the layers does not cover is reported as the
//! driver's unattributed time.

use ipra_callgraph::{CallGraph, Openness, SccInfo};
use ipra_core::alloc::allocate_function_with;
use ipra_core::config::{AllocMode, AllocOptions};
use ipra_core::lower::lower_function_with;
use ipra_core::{
    inline_hot_calls, normalize_entries, promote_globals, AnalysisCache, CompileScratch,
    CompiledModule, FuncArtifacts, SummaryEnv,
};
use ipra_ir::{hash_all_functions, EntityVec, FuncId, Module};
use ipra_machine::{MModule, Target};

use crate::report::timed;

/// Per-layer time (microseconds) and work counts of one or more compiles.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// Compiles summed into this value.
    pub compiles: u64,
    /// `parser::parse` + `lower::lower`.
    pub frontend_us: f64,
    /// Source bytes the front end read.
    pub src_bytes: u64,
    /// Clone, entry normalization, global promotion, inlining, hashing.
    pub prepare_us: f64,
    /// Call graph, SCC condensation, openness.
    pub callgraph_us: f64,
    /// `FuncAnalyses::compute` through the analysis memo.
    pub analysis_us: f64,
    /// `allocate_function_with`.
    pub alloc_us: f64,
    /// `lower_function_with`.
    pub lower_us: f64,
    /// Call sites the inliner spliced.
    pub inlined_sites: u64,
    /// (function, global) pairs promoted to registers.
    pub promoted_globals: u64,
    /// Referenced virtual registers left wholly in memory.
    pub memory_vregs: u64,
    /// Virtual registers split between registers and memory.
    pub split_vregs: u64,
    /// Shrink-wrap range-extension iterations.
    pub shrink_iterations: u64,
    /// Machine instructions lowered (terminators included).
    pub minsts: u64,
    /// Bottom-up waves of the SCC condensation.
    pub waves: u64,
    /// Widest wave seen, in components.
    pub widest_wave: u64,
}

impl Layers {
    /// Time of the layers `compile_module` runs (everything but the
    /// front end).
    pub fn compile_us(&self) -> f64 {
        self.prepare_us + self.callgraph_us + self.analysis_us + self.alloc_us + self.lower_us
    }

    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Layers) {
        self.compiles += o.compiles;
        self.frontend_us += o.frontend_us;
        self.src_bytes += o.src_bytes;
        self.prepare_us += o.prepare_us;
        self.callgraph_us += o.callgraph_us;
        self.analysis_us += o.analysis_us;
        self.alloc_us += o.alloc_us;
        self.lower_us += o.lower_us;
        self.inlined_sites += o.inlined_sites;
        self.promoted_globals += o.promoted_globals;
        self.memory_vregs += o.memory_vregs;
        self.split_vregs += o.split_vregs;
        self.shrink_iterations += o.shrink_iterations;
        self.minsts += o.minsts;
        self.waves += o.waves;
        self.widest_wave = self.widest_wave.max(o.widest_wave);
    }
}

/// Runs the front end on `source`, timing it into `layers`.
///
/// # Errors
///
/// The front end's error message.
pub fn frontend(source: &str, layers: &mut Layers) -> Result<Module, String> {
    let (module, t) = timed(|| {
        ipra_frontend::parser::parse(source).and_then(|p| ipra_frontend::lower::lower(&p))
    });
    layers.frontend_us += t;
    layers.src_bytes += source.len() as u64;
    module.map_err(|e| e.to_string())
}

/// The module `compile_module` allocates: the input after entry
/// normalization, global promotion and inlining, with its body hashes.
pub struct Prepared {
    /// The transformed module.
    pub module: Module,
    /// (function, global) pairs promoted.
    pub promoted: u64,
    /// Call sites inlined.
    pub inlined: u64,
    /// Structural hash of each transformed function, by `FuncId`.
    pub hashes: Vec<u64>,
}

/// `compile_module`'s module-level front half.
pub fn prepare(module: &Module, opts: &AllocOptions) -> Prepared {
    let mut m = module.clone();
    normalize_entries(&mut m);
    let promoted = if opts.promote_globals {
        promote_globals(&mut m).promoted as u64
    } else {
        0
    };
    let inlined = if opts.inline {
        inline_hot_calls(&mut m, opts.inline_budget, &opts.forced_open, None).inlined
    } else {
        0
    };
    let hashes = hash_all_functions(&m);
    Prepared {
        module: m,
        promoted,
        inlined,
        hashes,
    }
}

/// Compiles `module` the way `compile_module` does at `jobs = 1`, one
/// timed layer at a time, and returns the machine code.
pub fn compile(
    module: &Module,
    target: &Target,
    opts: &AllocOptions,
    layers: &mut Layers,
) -> MModule {
    layers.compiles += 1;
    let (
        Prepared {
            module: m,
            promoted,
            inlined,
            hashes,
        },
        t,
    ) = timed(|| prepare(module, opts));
    layers.prepare_us += t;
    layers.promoted_globals += promoted;
    layers.inlined_sites += inlined;

    let ((cg, scc, openness), t) = timed(|| {
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let openness = Openness::compute(&m, &cg, &scc);
        (cg, scc, openness)
    });
    layers.callgraph_us += t;
    let levels = scc.levels(&cg);
    layers.waves += levels.len() as u64;
    let widest = levels.iter().map(Vec::len).max().unwrap_or(0) as u64;
    layers.widest_wave = layers.widest_wave.max(widest);

    // The bottom-up order and environment updates of the serial path in
    // `compile_module_impl`. The analyses are computed (and timed) first,
    // so the allocator's own memo lookup is a hit and `alloc_us` holds
    // allocation alone.
    let inter = opts.mode == AllocMode::Inter;
    let analyses = AnalysisCache::default();
    let mut scratch = CompileScratch::default();
    let mut env = SummaryEnv::default();
    let mut arts: Vec<Option<FuncArtifacts>> = (0..m.funcs.len()).map(|_| None).collect();
    for fid in scc.bottom_up_order() {
        let func = &m.funcs[fid];
        let hash = hashes[fid.index()];
        let (_, t) = timed(|| analyses.get_or_compute(hash, func));
        layers.analysis_us += t;
        let is_open = !inter || opts.forced_open.contains(&func.name) || openness.is_open(fid);
        let (art, t) = timed(|| {
            allocate_function_with(
                &m,
                fid,
                target,
                opts,
                is_open,
                &env,
                None,
                &analyses,
                hash,
                &mut scratch,
            )
        });
        layers.alloc_us += t;
        if inter && !is_open {
            env.summaries.insert(fid, art.alloc.summary.clone());
        }
        env.tree_used.insert(fid, art.alloc.tree_used);
        arts[fid.index()] = Some(art);
    }

    let mut funcs = EntityVec::new();
    for (i, art) in arts.iter().enumerate() {
        let art = art.as_ref().expect("every function allocated");
        let func = &m.funcs[FuncId(i as u32)];
        let (mf, t) = timed(|| lower_function_with(&m, func, target, art, &mut scratch));
        layers.lower_us += t;
        funcs.push(mf);
    }
    let out = MModule {
        funcs,
        globals: m.globals.clone(),
        main: m.main,
    };
    layers.minsts += code_insts(&out);
    out
}

/// Adds the allocator's per-function `FuncReport` counts of `c`.
pub fn count_reports(c: &CompiledModule, layers: &mut Layers) {
    for r in &c.reports {
        layers.memory_vregs += r.memory_vregs as u64;
        layers.split_vregs += r.split_vregs as u64;
        layers.shrink_iterations += u64::from(r.shrink_iterations);
    }
}

/// The module's assembly, rendered exactly as the compile daemon renders
/// its `asm` response field.
pub fn render_asm(m: &MModule, target: &Target) -> String {
    let mut asm = String::new();
    for (_, f) in m.funcs.iter() {
        asm.push_str(&f.display_in(&target.regs, m).to_string());
        asm.push('\n');
    }
    asm
}

/// Static machine instructions of `m`, terminators included.
pub fn code_insts(m: &MModule) -> u64 {
    m.funcs
        .iter()
        .flat_map(|(_, f)| f.blocks.iter())
        .map(|(_, b)| b.insts.len() as u64 + 1)
        .sum()
}

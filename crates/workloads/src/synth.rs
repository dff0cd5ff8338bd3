//! Synthetic program generators.
//!
//! Three families: random well-formed Mini sources (terminating by
//! construction) for differential fuzzing of the whole pipeline,
//! *shape-calibrated* sources ([`shaped_source`]) that steer the call-graph
//! topology (recursion, fan-out, function pointers, arity spread) to
//! exercise the open/closed classification axis, and parameterized
//! call-tree IR modules for allocator ablations and throughput benchmarks.

use std::fmt::Write as _;

use ipra_callgraph::{CallGraph, Openness, SccInfo};
use ipra_ir::builder::FunctionBuilder;
use ipra_ir::{BinOp, Callee, FuncId, Inst, Module, Operand};

/// A tiny deterministic PRNG (xorshift64* seeded through splitmix64), so
/// the generators need no external crates and produce identical programs
/// for a given seed on every platform.
#[derive(Clone, Debug)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator from an arbitrary seed (zero included).
    pub fn new(seed: u64) -> Self {
        // One splitmix64 step scrambles low-entropy seeds and guarantees a
        // non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64Star { state: z | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (`0` when `n == 0`). The modulo bias is
    /// irrelevant for program generation.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform value in `lo..hi` (half-open; `lo` when the range is empty).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        if hi <= lo {
            lo
        } else {
            lo + self.below((hi - lo) as u64) as i64
        }
    }

    /// Fair coin flip.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Tuning knobs for [`random_source`].
#[derive(Clone, Copy, Debug)]
pub struct SourceConfig {
    /// Number of functions besides `main`.
    pub num_funcs: usize,
    /// Number of global scalars.
    pub num_globals: usize,
    /// Number of global arrays.
    pub num_arrays: usize,
    /// Statements per function body.
    pub stmts_per_func: usize,
    /// Maximum statement nesting depth.
    pub max_depth: usize,
}

impl Default for SourceConfig {
    fn default() -> Self {
        SourceConfig {
            num_funcs: 6,
            num_globals: 4,
            num_arrays: 2,
            stmts_per_func: 8,
            max_depth: 3,
        }
    }
}

/// Generates a random, deterministic, *terminating* Mini program.
///
/// Termination by construction: every loop is a canonical bounded counter
/// loop whose induction variable is written nowhere else, and the call
/// graph is acyclic (functions only call earlier functions).
pub fn random_source(seed: u64, cfg: &SourceConfig) -> String {
    let mut rng = XorShift64Star::new(seed);
    let mut out = String::new();
    let _ = writeln!(out, "// random program, seed {seed}");

    for g in 0..cfg.num_globals {
        let _ = writeln!(out, "global g{g}: int = {};", rng.range_i64(-50, 50));
    }
    for a in 0..cfg.num_arrays {
        let _ = writeln!(out, "global arr{a}: [int; 16];");
    }

    // Fix arities up front so call sites always match.
    let arities: Vec<usize> = (0..cfg.num_funcs).map(|_| rng.below(4) as usize).collect();
    let mut gen = SrcGen {
        rng,
        cfg: *cfg,
        loop_counter: 0,
        arities,
        loop_depth: 0,
    };

    // Functions f0..fN; fK may call f0..f(K-1) (acyclic, so terminating).
    for f in 0..cfg.num_funcs {
        let nparams = gen.arities[f];
        let params: Vec<String> = (0..nparams).map(|i| format!("p{i}")).collect();
        let header: Vec<String> = params.iter().map(|p| format!("{p}: int")).collect();
        let _ = writeln!(out, "fn f{f}({}) -> int {{", header.join(", "));
        let mut scope: Vec<String> = params;
        gen.stmts(
            &mut out,
            f,
            &mut scope,
            cfg.stmts_per_func,
            cfg.max_depth,
            1,
        );
        let _ = writeln!(out, "  return {};", gen.expr(f, &scope, 2));
        let _ = writeln!(out, "}}");
    }

    let _ = writeln!(out, "fn main() {{");
    let mut scope: Vec<String> = Vec::new();
    let n = cfg.num_funcs;
    gen.stmts(
        &mut out,
        n,
        &mut scope,
        cfg.stmts_per_func,
        cfg.max_depth,
        1,
    );
    for f in 0..n {
        let call = gen.call_expr(f, n, &scope, 1);
        let _ = writeln!(out, "  print({call});");
    }
    for g in 0..cfg.num_globals {
        let _ = writeln!(out, "  print(g{g});");
    }
    let _ = writeln!(out, "}}");
    out
}

struct SrcGen {
    rng: XorShift64Star,
    cfg: SourceConfig,
    loop_counter: usize,
    arities: Vec<usize>,
    /// Loop nesting depth at the generation point: calls are only generated
    /// outside loops, so total call counts stay polynomial and the
    /// reference interpreter never exhausts its budget.
    loop_depth: usize,
}

impl SrcGen {
    /// An expression usable inside function `f` (callable: f0..f{f-1}).
    fn expr(&mut self, f: usize, scope: &[String], depth: usize) -> String {
        if depth == 0 {
            return self.atom(scope);
        }
        match self.rng.below(10) {
            0..=3 => {
                let op = ["+", "-", "*", "&", "|", "^"][self.rng.below(6) as usize];
                let l = self.expr(f, scope, depth - 1);
                let r = self.expr(f, scope, depth - 1);
                format!("({l} {op} {r})")
            }
            4 => {
                // Division/remainder by a non-zero constant only.
                let op = if self.rng.coin() { "/" } else { "%" };
                let l = self.expr(f, scope, depth - 1);
                let c = self.rng.range_i64(1, 9);
                format!("({l} {op} {c})")
            }
            5 => {
                let op = ["==", "!=", "<", "<=", ">", ">="][self.rng.below(6) as usize];
                let l = self.expr(f, scope, depth - 1);
                let r = self.expr(f, scope, depth - 1);
                format!("({l} {op} {r})")
            }
            6 if f > 0 && self.loop_depth == 0 => {
                let callee = self.rng.below(f as u64) as usize;
                self.call_expr(callee, f, scope, depth)
            }
            7 if self.cfg.num_arrays > 0 => {
                let a = self.rng.below(self.cfg.num_arrays as u64) as usize;
                let i = self.expr(f, scope, depth - 1);
                format!("arr{a}[(({i}) % 16 + 16) % 16]")
            }
            8 => {
                let inner = self.expr(f, scope, depth - 1);
                format!("(-({inner}))")
            }
            _ => self.atom(scope),
        }
    }

    fn atom(&mut self, scope: &[String]) -> String {
        let choices = scope.len() + self.cfg.num_globals + 1;
        let k = self.rng.below(choices.max(1) as u64) as usize;
        if k < scope.len() {
            scope[k].clone()
        } else if k < scope.len() + self.cfg.num_globals {
            format!("g{}", k - scope.len())
        } else {
            format!("{}", self.rng.range_i64(-99, 100))
        }
    }

    /// A call to `f{callee}` with arguments generated in function `f`'s
    /// scope (argument sub-expressions may themselves call earlier
    /// functions).
    fn call_expr(&mut self, callee: usize, f: usize, scope: &[String], depth: usize) -> String {
        let args: Vec<String> = (0..self.arities[callee])
            .map(|_| self.expr(f, scope, depth.saturating_sub(1)))
            .collect();
        format!("f{callee}({})", args.join(", "))
    }

    fn stmts(
        &mut self,
        out: &mut String,
        f: usize,
        scope: &mut Vec<String>,
        n: usize,
        depth: usize,
        indent: usize,
    ) {
        let pad = "  ".repeat(indent);
        for _ in 0..n {
            match self.rng.below(10) {
                0..=2 => {
                    let name = format!("v{}", scope.len());
                    let init = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}var {name}: int = {init};");
                    scope.push(name);
                }
                3..=4 if !scope.is_empty() => {
                    let v = scope[self.rng.below(scope.len() as u64) as usize].clone();
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}{v} = {e};");
                }
                5 if self.cfg.num_globals > 0 => {
                    let g = self.rng.below(self.cfg.num_globals as u64) as usize;
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}g{g} = {e};");
                }
                6 if self.cfg.num_arrays > 0 => {
                    let a = self.rng.below(self.cfg.num_arrays as u64) as usize;
                    let i = self.expr(f, scope, 1);
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}arr{a}[(({i}) % 16 + 16) % 16] = {e};");
                }
                7 if depth > 0 => {
                    let c = self.expr(f, scope, 1);
                    let _ = writeln!(out, "{pad}if {c} {{");
                    let before = scope.len();
                    self.stmts(out, f, scope, n / 2 + 1, depth - 1, indent + 1);
                    scope.truncate(before);
                    let _ = writeln!(out, "{pad}}} else {{");
                    self.stmts(out, f, scope, n / 2, depth - 1, indent + 1);
                    scope.truncate(before);
                    let _ = writeln!(out, "{pad}}}");
                }
                8 if depth > 0 => {
                    // Canonical bounded loop; induction var is reserved (it
                    // is never added to `scope`, so no generated statement
                    // can overwrite it and termination is guaranteed).
                    let lv = format!("L{}", self.loop_counter);
                    self.loop_counter += 1;
                    let bound = self.rng.range_i64(1, 8);
                    let _ = writeln!(out, "{pad}var {lv}: int = 0;");
                    let _ = writeln!(out, "{pad}while {lv} < {bound} {{");
                    let before = scope.len();
                    self.loop_depth += 1;
                    self.stmts(out, f, scope, n / 2 + 1, depth - 1, indent + 1);
                    self.loop_depth -= 1;
                    scope.truncate(before);
                    let _ = writeln!(out, "{pad}  {lv} = {lv} + 1;");
                    let _ = writeln!(out, "{pad}}}");
                }
                _ => {
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}print({e});");
                }
            }
        }
    }
}

/// A call-tree module: `depth` levels with `fanout` callees per level; each
/// function computes with `work` local variables, keeping several live
/// across its calls. Deterministic in shape; useful for allocator
/// throughput and ablation measurements.
pub fn call_tree(depth: usize, fanout: usize, work: usize) -> Module {
    let mut m = Module::new();
    build_tree(&mut m, depth, fanout, work);
    m
}

fn build_tree(m: &mut Module, depth: usize, fanout: usize, work: usize) -> FuncId {
    let children: Vec<FuncId> = if depth == 0 {
        Vec::new()
    } else {
        (0..fanout)
            .map(|_| build_tree(m, depth - 1, fanout, work))
            .collect()
    };
    let name = format!("n{}", m.funcs.len());
    let mut b = FunctionBuilder::new(name);
    let x = b.param("x");
    let locals: Vec<_> = (0..work)
        .map(|i| b.bin(BinOp::Add, x, Operand::Imm(i as i64 + 1)))
        .collect();
    let mut acc = b.copy(x);
    for c in &children {
        let r = b.call(*c, vec![acc.into()]);
        acc = b.bin(BinOp::Add, r, 1);
    }
    // Touch the locals after the calls so they are live across them.
    for l in &locals {
        acc = b.bin(BinOp::Add, acc, *l);
    }
    b.ret(Some(acc.into()));
    m.add_func(b.build())
}

// ---------------------------------------------------------------------------
// Shape-calibrated generation.
//
// `random_source` above only emits acyclic direct call graphs, which makes
// every generated procedure (except `main`) *closed* under the paper's §3
// classification. The shaped generator steers topology so the other half of
// the axis — recursion and address-taken/indirect-call targets, which force
// the default (open) linkage — is exercised at scale.
//
// Termination by construction, per shape:
//
// - Acyclic / WideFanout / VariedArity: functions only call earlier
//   functions, exactly like `random_source`.
// - DeepRecursion: *every* function takes a leading `fuel: int` parameter;
//   every call (any callee, including self and later functions — so direct
//   and mutual recursion both occur) passes `fuel - 1` and sits behind an
//   `if fuel > 0` guard. The call tree therefore has depth at most the
//   initial fuel, regardless of topology.
// - FnPtrHeavy: direct calls go to earlier functions; function-pointer
//   values only ever hold addresses of functions *earlier than the function
//   whose body performs the indirect call*, so indirect edges respect the
//   same acyclic order.

/// Call-graph shape class of a generated program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShapeClass {
    /// Acyclic direct calls only (the `random_source` topology): every
    /// non-`main` procedure classifies closed.
    Acyclic,
    /// Fuel-bounded direct and mutual recursion: cycles in the call graph
    /// force the `Recursive` open reason.
    DeepRecursion,
    /// Many functions, each calling several earlier ones: stresses wide
    /// summary propagation and whole-tree usage masks.
    WideFanout,
    /// Address-taken functions, fnptr locals and parameters, indirect call
    /// sites: forces the `AddressTaken` open reason.
    FnPtrHeavy,
    /// Arities 0..=8 (past the parameter-register file): stresses custom
    /// parameter-register bindings and stack argument homes.
    VariedArity,
}

impl ShapeClass {
    /// All shape classes, in canonical sweep order.
    pub const ALL: [ShapeClass; 5] = [
        ShapeClass::Acyclic,
        ShapeClass::DeepRecursion,
        ShapeClass::WideFanout,
        ShapeClass::FnPtrHeavy,
        ShapeClass::VariedArity,
    ];

    /// Stable lowercase name (seed-corpus file names, CLI `--shape`).
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Acyclic => "acyclic",
            ShapeClass::DeepRecursion => "recursive",
            ShapeClass::WideFanout => "fanout",
            ShapeClass::FnPtrHeavy => "fnptr",
            ShapeClass::VariedArity => "arity",
        }
    }

    /// Parses [`ShapeClass::name`] back.
    pub fn by_name(name: &str) -> Option<ShapeClass> {
        ShapeClass::ALL.iter().copied().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for ShapeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for [`shaped_source`]: a [`ShapeClass`] plus the base
/// volume knobs and the recursion budget.
#[derive(Clone, Copy, Debug)]
pub struct ShapeConfig {
    /// Call-graph topology to generate.
    pub class: ShapeClass,
    /// Base volume knobs (function count, statement count, nesting).
    pub base: SourceConfig,
    /// Initial fuel threaded through [`ShapeClass::DeepRecursion`]
    /// programs: recursion depth is bounded by this value.
    pub fuel: i64,
}

impl ShapeConfig {
    /// The calibrated default configuration for a shape class.
    pub fn new(class: ShapeClass) -> ShapeConfig {
        let base = match class {
            ShapeClass::Acyclic => SourceConfig::default(),
            ShapeClass::DeepRecursion => SourceConfig {
                num_funcs: 5,
                num_globals: 3,
                num_arrays: 1,
                stmts_per_func: 6,
                max_depth: 2,
            },
            ShapeClass::WideFanout => SourceConfig {
                num_funcs: 14,
                num_globals: 5,
                num_arrays: 1,
                stmts_per_func: 5,
                max_depth: 2,
            },
            ShapeClass::FnPtrHeavy => SourceConfig {
                num_funcs: 8,
                num_globals: 4,
                num_arrays: 1,
                stmts_per_func: 7,
                max_depth: 2,
            },
            ShapeClass::VariedArity => SourceConfig {
                num_funcs: 9,
                num_globals: 3,
                num_arrays: 1,
                stmts_per_func: 6,
                max_depth: 2,
            },
        };
        ShapeConfig {
            class,
            base,
            fuel: 9,
        }
    }
}

/// Generates a random, deterministic, terminating Mini program whose
/// call-graph topology follows `cfg.class` (see the module comment for the
/// per-shape termination argument).
pub fn shaped_source(seed: u64, cfg: &ShapeConfig) -> String {
    let mut rng = XorShift64Star::new(seed ^ 0xC0DE_5EED_0000 ^ (cfg.class as u64) << 56);
    let base = cfg.base;
    let mut out = String::new();
    let _ = writeln!(out, "// shaped program: {} seed {seed}", cfg.class);

    for g in 0..base.num_globals {
        let _ = writeln!(out, "global g{g}: int = {};", rng.range_i64(-50, 50));
    }
    for a in 0..base.num_arrays {
        let _ = writeln!(out, "global arr{a}: [int; 16];");
    }

    let fueled = cfg.class == ShapeClass::DeepRecursion;
    // Non-fuel arities; the fuel parameter is extra and implicit.
    let max_arity = match cfg.class {
        ShapeClass::VariedArity => 9, // 0..=8
        _ => 4,                       // 0..=3
    };
    let arities: Vec<usize> = (0..base.num_funcs)
        .map(|f| {
            if cfg.class == ShapeClass::FnPtrHeavy && f == 0 {
                // Fixed arity-1 anchor: fnptr parameters always have an
                // arity-1 target available (see `fn_param_target`).
                1
            } else {
                rng.below(max_arity) as usize
            }
        })
        .collect();
    // Which functions take a trailing fnptr parameter (FnPtrHeavy only;
    // f0 is the universal target and must not require one).
    let fnptr_param: Vec<bool> = (0..base.num_funcs)
        .map(|f| cfg.class == ShapeClass::FnPtrHeavy && f > 0 && rng.below(3) == 0)
        .collect();

    let mut gen = ShapeGen {
        rng,
        cfg: *cfg,
        base,
        arities,
        fnptr_param,
        fueled,
        loop_counter: 0,
        loop_depth: 0,
        var_counter: 0,
    };

    for f in 0..base.num_funcs {
        let mut header: Vec<String> = Vec::new();
        if fueled {
            header.push("fuel: int".into());
        }
        let mut scope: Vec<String> = Vec::new();
        for i in 0..gen.arities[f] {
            header.push(format!("p{i}: int"));
            scope.push(format!("p{i}"));
        }
        let mut fn_scope: Vec<FnPtrVar> = Vec::new();
        if gen.fnptr_param[f] {
            header.push("fp: fnptr".into());
            fn_scope.push(FnPtrVar {
                name: "fp".into(),
                arity: gen.arities[0],
            });
        }
        let _ = writeln!(out, "fn f{f}({}) -> int {{", header.join(", "));
        gen.stmts(
            &mut out,
            f,
            &mut scope,
            &mut fn_scope,
            base.stmts_per_func,
            base.max_depth,
            1,
        );
        let _ = writeln!(out, "  return {};", gen.expr(f, &scope, 2));
        let _ = writeln!(out, "}}");
    }

    let _ = writeln!(out, "fn main() {{");
    let n = base.num_funcs;
    let mut scope: Vec<String> = Vec::new();
    let mut fn_scope: Vec<FnPtrVar> = Vec::new();
    gen.stmts(
        &mut out,
        n,
        &mut scope,
        &mut fn_scope,
        base.stmts_per_func,
        base.max_depth,
        1,
    );
    if cfg.class == ShapeClass::FnPtrHeavy {
        // Every fnptr-heavy module has at least one address-taken
        // function and one indirect call site, whatever the seed — the
        // per-module calibration guarantee the classification tests rely
        // on. `f0` has fixed arity 1 (see above).
        let _ = writeln!(out, "  var q_main: fnptr = &f0;");
        let _ = writeln!(out, "  print(q_main({}));", gen.rng.range_i64(-9, 10));
    }
    // Every function is reachable from main, so no shape is accidentally
    // trivial: summaries of each are consulted somewhere.
    for f in 0..n {
        let call = gen.direct_call(f, n, &scope, 1);
        let _ = writeln!(out, "  print({call});");
    }
    for g in 0..base.num_globals {
        let _ = writeln!(out, "  print(g{g});");
    }
    let _ = writeln!(out, "}}");
    out
}

/// An in-scope `fnptr` variable (or parameter) and the non-fuel arity of
/// every function whose address it can hold.
#[derive(Clone, Debug)]
struct FnPtrVar {
    name: String,
    arity: usize,
}

struct ShapeGen {
    rng: XorShift64Star,
    cfg: ShapeConfig,
    base: SourceConfig,
    arities: Vec<usize>,
    fnptr_param: Vec<bool>,
    fueled: bool,
    loop_counter: usize,
    loop_depth: usize,
    /// Global variable counter: inner-scope variables stay unique even
    /// after outer scopes truncate (unlike `SrcGen`, shapes reuse names
    /// across sibling scopes otherwise, because fnptr vars share the pool).
    var_counter: usize,
}

impl ShapeGen {
    /// Side-effect-free expression usable inside function `f` (`f ==
    /// num_funcs` means `main`). Calls are *never* generated in expression
    /// position by the shaped generator: call topology is controlled
    /// entirely by the statement layer.
    fn expr(&mut self, f: usize, scope: &[String], depth: usize) -> String {
        let _ = f;
        if depth == 0 {
            return self.atom(scope);
        }
        match self.rng.below(10) {
            0..=3 => {
                let op = ["+", "-", "*", "&", "|", "^"][self.rng.below(6) as usize];
                let l = self.expr(f, scope, depth - 1);
                let r = self.expr(f, scope, depth - 1);
                format!("({l} {op} {r})")
            }
            4 => {
                let op = if self.rng.coin() { "/" } else { "%" };
                let l = self.expr(f, scope, depth - 1);
                let c = self.rng.range_i64(1, 9);
                format!("({l} {op} {c})")
            }
            5 => {
                let op = ["==", "!=", "<", "<=", ">", ">="][self.rng.below(6) as usize];
                let l = self.expr(f, scope, depth - 1);
                let r = self.expr(f, scope, depth - 1);
                format!("({l} {op} {r})")
            }
            6 | 7 if self.base.num_arrays > 0 => {
                let a = self.rng.below(self.base.num_arrays as u64) as usize;
                let i = self.expr(f, scope, depth - 1);
                format!("arr{a}[(({i}) % 16 + 16) % 16]")
            }
            8 => {
                let inner = self.expr(f, scope, depth - 1);
                format!("(-({inner}))")
            }
            _ => self.atom(scope),
        }
    }

    fn atom(&mut self, scope: &[String]) -> String {
        let choices = scope.len() + self.base.num_globals + 1;
        let k = self.rng.below(choices.max(1) as u64) as usize;
        if k < scope.len() {
            scope[k].clone()
        } else if k < scope.len() + self.base.num_globals {
            format!("g{}", k - scope.len())
        } else {
            format!("{}", self.rng.range_i64(-99, 100))
        }
    }

    /// Argument list for a call to `f{callee}` made from inside function
    /// `f` (argument expressions never contain calls).
    fn args_for(&mut self, callee: usize, f: usize, scope: &[String], fuel_expr: &str) -> String {
        let mut args: Vec<String> = Vec::new();
        if self.fueled {
            args.push(fuel_expr.to_string());
        }
        for _ in 0..self.arities[callee] {
            args.push(self.expr(f, scope, 1));
        }
        if self.fnptr_param[callee] {
            // The callee will *call* this pointer, so its target must be
            // earlier than the callee itself to keep indirect edges
            // acyclic; `fn_param_target` picks an arity-matched one.
            args.push(format!("&f{}", self.fn_param_target(callee)));
        }
        args.join(", ")
    }

    /// A function earlier than `callee` whose non-fuel arity matches the
    /// fnptr-parameter convention (the arity of `f0`). Indirect calls pass
    /// int arguments only, so targets must be addressable (no fnptr param
    /// of their own).
    fn fn_param_target(&mut self, callee: usize) -> usize {
        let want = self.arities[0];
        let candidates: Vec<usize> = (0..callee)
            .filter(|&j| self.arities[j] == want && !self.fnptr_param[j])
            .collect();
        candidates[self.rng.below(candidates.len() as u64) as usize]
    }

    /// A direct call expression to `f{callee}` from function `f`. Callers
    /// must ensure the edge is legal for the shape (acyclic shapes:
    /// `callee < f`; fueled shapes: any callee, but the caller wraps the
    /// call in an `if fuel > 0` guard and we pass `fuel - 1`).
    fn direct_call(&mut self, callee: usize, f: usize, scope: &[String], _depth: usize) -> String {
        let fuel_expr = if f == self.base.num_funcs {
            // Calls from `main` start the budget.
            self.cfg.fuel.to_string()
        } else {
            "(fuel - 1)".to_string()
        };
        let args = self.args_for(callee, f, scope, &fuel_expr);
        format!("f{callee}({args})")
    }

    #[allow(clippy::too_many_arguments)]
    fn stmts(
        &mut self,
        out: &mut String,
        f: usize,
        scope: &mut Vec<String>,
        fn_scope: &mut Vec<FnPtrVar>,
        n: usize,
        depth: usize,
        indent: usize,
    ) {
        let pad = "  ".repeat(indent);
        let in_main = f == self.base.num_funcs;
        for _ in 0..n {
            match self.rng.below(14) {
                0..=2 => {
                    let name = format!("v{}", self.var_counter);
                    self.var_counter += 1;
                    let init = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}var {name}: int = {init};");
                    scope.push(name);
                }
                3 if !scope.is_empty() => {
                    let v = scope[self.rng.below(scope.len() as u64) as usize].clone();
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}{v} = {e};");
                }
                4 if self.base.num_globals > 0 => {
                    let g = self.rng.below(self.base.num_globals as u64) as usize;
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}g{g} = {e};");
                }
                5 if self.base.num_arrays > 0 => {
                    let a = self.rng.below(self.base.num_arrays as u64) as usize;
                    let i = self.expr(f, scope, 1);
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}arr{a}[(({i}) % 16 + 16) % 16] = {e};");
                }
                6 if depth > 0 => {
                    let c = self.expr(f, scope, 1);
                    let _ = writeln!(out, "{pad}if {c} {{");
                    let (bs, bf) = (scope.len(), fn_scope.len());
                    self.stmts(out, f, scope, fn_scope, n / 2 + 1, depth - 1, indent + 1);
                    scope.truncate(bs);
                    fn_scope.truncate(bf);
                    let _ = writeln!(out, "{pad}}} else {{");
                    self.stmts(out, f, scope, fn_scope, n / 2, depth - 1, indent + 1);
                    scope.truncate(bs);
                    fn_scope.truncate(bf);
                    let _ = writeln!(out, "{pad}}}");
                }
                7 if depth > 0 => {
                    // Canonical bounded loop (see `SrcGen::stmts`).
                    let lv = format!("L{}", self.loop_counter);
                    self.loop_counter += 1;
                    let bound = self.rng.range_i64(1, 8);
                    let _ = writeln!(out, "{pad}var {lv}: int = 0;");
                    let _ = writeln!(out, "{pad}while {lv} < {bound} {{");
                    let (bs, bf) = (scope.len(), fn_scope.len());
                    self.loop_depth += 1;
                    self.stmts(out, f, scope, fn_scope, n / 2 + 1, depth - 1, indent + 1);
                    self.loop_depth -= 1;
                    scope.truncate(bs);
                    fn_scope.truncate(bf);
                    let _ = writeln!(out, "{pad}  {lv} = {lv} + 1;");
                    let _ = writeln!(out, "{pad}}}");
                }
                // Call statements: the only place shaped programs call.
                8..=10 if self.loop_depth == 0 => {
                    self.call_stmt(out, f, scope, fn_scope, &pad, in_main);
                }
                // fnptr declarations and retargeting (FnPtrHeavy only).
                11 | 12 if self.cfg.class == ShapeClass::FnPtrHeavy && f > 0 && self.rng.coin() => {
                    self.fnptr_stmt(out, f, scope, fn_scope, &pad);
                }
                _ => {
                    let e = self.expr(f, scope, 2);
                    let _ = writeln!(out, "{pad}print({e});");
                }
            }
        }
    }

    /// Emits one call statement appropriate for the shape: a guarded
    /// fueled call (DeepRecursion), an indirect call through an in-scope
    /// pointer (FnPtrHeavy, sometimes), or a plain acyclic direct call.
    fn call_stmt(
        &mut self,
        out: &mut String,
        f: usize,
        scope: &mut Vec<String>,
        fn_scope: &[FnPtrVar],
        pad: &str,
        in_main: bool,
    ) {
        let nfuncs = self.base.num_funcs;
        if self.fueled && !in_main {
            // Any callee is legal behind the fuel guard; self and later
            // targets create direct/mutual recursion.
            let callee = self.rng.below(nfuncs as u64) as usize;
            let name = format!("v{}", self.var_counter);
            self.var_counter += 1;
            let init = self.rng.range_i64(-9, 10);
            let _ = writeln!(out, "{pad}var {name}: int = {init};");
            let call = self.direct_call(callee, f, scope, 1);
            let _ = writeln!(out, "{pad}if fuel > 0 {{ {name} = {call}; }}");
            scope.push(name);
            return;
        }
        if self.cfg.class == ShapeClass::FnPtrHeavy && !fn_scope.is_empty() && self.rng.coin() {
            // Indirect call through a pointer already in scope.
            let p = &fn_scope[self.rng.below(fn_scope.len() as u64) as usize];
            let (pname, arity) = (p.name.clone(), p.arity);
            let mut args: Vec<String> = Vec::new();
            for _ in 0..arity {
                args.push(self.expr(f, scope, 1));
            }
            let name = format!("v{}", self.var_counter);
            self.var_counter += 1;
            let _ = writeln!(out, "{pad}var {name}: int = {pname}({});", args.join(", "));
            scope.push(name);
            return;
        }
        if f == 0 && !in_main {
            // f0 has no earlier function to call.
            let e = self.expr(f, scope, 2);
            let _ = writeln!(out, "{pad}print({e});");
            return;
        }
        // Plain acyclic direct call to an earlier function. WideFanout
        // spreads targets uniformly; other shapes favor near neighbors.
        let limit = if in_main { nfuncs } else { f };
        let callee = self.rng.below(limit as u64) as usize;
        let name = format!("v{}", self.var_counter);
        self.var_counter += 1;
        let call = self.direct_call(callee, f, scope, 1);
        let _ = writeln!(out, "{pad}var {name}: int = {call};");
        scope.push(name);
    }

    /// Declares a fresh fnptr variable aimed at an earlier function, or
    /// conditionally retargets an existing one (same arity, still earlier,
    /// so the acyclicity argument holds on every path).
    fn fnptr_stmt(
        &mut self,
        out: &mut String,
        f: usize,
        scope: &[String],
        fn_scope: &mut Vec<FnPtrVar>,
        pad: &str,
    ) {
        if !fn_scope.is_empty() && self.rng.coin() {
            let i = self.rng.below(fn_scope.len() as u64) as usize;
            let (pname, arity) = (fn_scope[i].name.clone(), fn_scope[i].arity);
            let same: Vec<usize> = (0..f)
                .filter(|&j| self.arities[j] == arity && !self.fnptr_param[j])
                .collect();
            if !same.is_empty() {
                let target = same[self.rng.below(same.len() as u64) as usize];
                let cond = self.expr(f, scope, 1);
                let _ = writeln!(out, "{pad}if {cond} {{ {pname} = &f{target}; }}");
                return;
            }
        }
        // Indirect calls pass int arguments only, so a pointer may only
        // ever hold a function without a fnptr parameter of its own.
        let addressable: Vec<usize> = (0..f).filter(|&j| !self.fnptr_param[j]).collect();
        let target = addressable[self.rng.below(addressable.len() as u64) as usize];
        let name = format!("q{}", self.var_counter);
        self.var_counter += 1;
        let _ = writeln!(out, "{pad}var {name}: fnptr = &f{target};");
        fn_scope.push(FnPtrVar {
            name,
            arity: self.arities[target],
        });
    }
}

/// Static call-graph shape statistics of one module — the calibration
/// evidence that a corpus actually exercises the open/closed axis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShapeStats {
    /// Total functions (including `main`).
    pub funcs: usize,
    /// Procedures classified open (any §3 reason).
    pub open_funcs: usize,
    /// Procedures classified closed.
    pub closed_funcs: usize,
    /// Procedures on a call-graph cycle (direct or mutual recursion).
    pub recursive_funcs: usize,
    /// Procedures whose address is taken.
    pub address_taken_funcs: usize,
    /// Indirect call sites.
    pub indirect_sites: usize,
    /// Direct call sites.
    pub direct_sites: usize,
    /// Depth of the SCC condensation (number of wave levels): the static
    /// call-depth bound for acyclic programs, a lower bound otherwise.
    pub max_call_depth: usize,
    /// Largest declared parameter count.
    pub max_arity: usize,
}

impl ShapeStats {
    /// Computes the statistics for `module`.
    pub fn collect(module: &Module) -> ShapeStats {
        let cg = CallGraph::build(module);
        let scc = SccInfo::compute(&cg);
        let openness = Openness::compute(module, &cg, &scc);
        let mut s = ShapeStats {
            funcs: module.funcs.len(),
            max_call_depth: scc.levels(&cg).len(),
            ..ShapeStats::default()
        };
        for (id, f) in module.funcs.iter() {
            if openness.is_open(id) {
                s.open_funcs += 1;
            } else {
                s.closed_funcs += 1;
            }
            if scc.on_cycle[id.index()] {
                s.recursive_funcs += 1;
            }
            if cg.address_taken[id.index()] {
                s.address_taken_funcs += 1;
            }
            s.max_arity = s.max_arity.max(f.params.len());
            for (_, b) in f.blocks.iter() {
                for inst in &b.insts {
                    if let Inst::Call { callee, .. } = inst {
                        match callee {
                            Callee::Direct(_) => s.direct_sites += 1,
                            Callee::Indirect(_) => s.indirect_sites += 1,
                        }
                    }
                }
            }
        }
        s
    }

    /// Reports the statistics to the `ipra-obs` sink, making corpus
    /// calibration assertable from a trace.
    pub fn record(&self) {
        ipra_obs::counter("shape.funcs", &[], self.funcs as u64);
        ipra_obs::counter("shape.open_funcs", &[], self.open_funcs as u64);
        ipra_obs::counter("shape.closed_funcs", &[], self.closed_funcs as u64);
        ipra_obs::counter("shape.recursive_funcs", &[], self.recursive_funcs as u64);
        ipra_obs::counter(
            "shape.address_taken_funcs",
            &[],
            self.address_taken_funcs as u64,
        );
        ipra_obs::counter("shape.indirect_sites", &[], self.indirect_sites as u64);
        ipra_obs::counter("shape.direct_sites", &[], self.direct_sites as u64);
        ipra_obs::counter("shape.max_call_depth", &[], self.max_call_depth as u64);
        ipra_obs::counter("shape.max_arity", &[], self.max_arity as u64);
    }

    /// Accumulates another module's statistics into a corpus aggregate
    /// (`max_*` fields take the maximum, counts add).
    pub fn absorb(&mut self, other: &ShapeStats) {
        self.funcs += other.funcs;
        self.open_funcs += other.open_funcs;
        self.closed_funcs += other.closed_funcs;
        self.recursive_funcs += other.recursive_funcs;
        self.address_taken_funcs += other.address_taken_funcs;
        self.indirect_sites += other.indirect_sites;
        self.direct_sites += other.direct_sites;
        self.max_call_depth = self.max_call_depth.max(other.max_call_depth);
        self.max_arity = self.max_arity.max(other.max_arity);
    }
}

/// Wraps a call-tree root in a `main` that invokes it `iters` times.
pub fn call_tree_program(depth: usize, fanout: usize, work: usize, iters: usize) -> Module {
    let mut m = call_tree(depth, fanout, work);
    let root = FuncId((m.funcs.len() - 1) as u32);
    let mut b = FunctionBuilder::new("main");
    let mut acc = b.copy(0);
    for i in 0..iters {
        let r = b.call(root, vec![Operand::Imm(i as i64)]);
        acc = b.bin(BinOp::Add, acc, r);
    }
    b.print(acc);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    m
}

#[cfg(test)]
mod shape_tests {
    use super::*;

    /// Every shape class, across a seed range, must produce a program that
    /// the frontend accepts and the interpreter finishes under the default
    /// fuel — the termination-by-construction argument, checked.
    #[test]
    fn shaped_sources_compile_and_terminate() {
        for class in ShapeClass::ALL {
            let cfg = ShapeConfig::new(class);
            for seed in 0..12u64 {
                let src = shaped_source(seed, &cfg);
                let module = ipra_frontend::compile(&src)
                    .unwrap_or_else(|e| panic!("{class} seed {seed}: {e}\n{src}"));
                ipra_ir::interp::run_module(&module)
                    .unwrap_or_else(|t| panic!("{class} seed {seed} trapped: {t:?}\n{src}"));
            }
        }
    }

    #[test]
    fn shaped_source_is_deterministic() {
        for class in ShapeClass::ALL {
            let cfg = ShapeConfig::new(class);
            assert_eq!(shaped_source(7, &cfg), shaped_source(7, &cfg));
        }
    }

    #[test]
    fn shape_class_names_round_trip() {
        for class in ShapeClass::ALL {
            assert_eq!(ShapeClass::by_name(class.name()), Some(class));
        }
        assert_eq!(ShapeClass::by_name("bogus"), None);
    }

    fn stats_over(class: ShapeClass, seeds: std::ops::Range<u64>) -> ShapeStats {
        let cfg = ShapeConfig::new(class);
        let mut agg = ShapeStats::default();
        for seed in seeds {
            let module = ipra_frontend::compile(&shaped_source(seed, &cfg)).unwrap();
            agg.absorb(&ShapeStats::collect(&module));
        }
        agg
    }

    /// Acyclic shapes must never put a procedure on a call-graph cycle or
    /// take an address; recursion shapes must do the former, fnptr shapes
    /// the latter (with real indirect call sites), at corpus scale.
    #[test]
    fn shape_classes_hit_their_topology_targets() {
        let acyclic = stats_over(ShapeClass::Acyclic, 0..10);
        assert_eq!(acyclic.recursive_funcs, 0);
        assert_eq!(acyclic.indirect_sites, 0);
        assert!(
            acyclic.closed_funcs > 0,
            "acyclic corpora have closed procs"
        );

        let rec = stats_over(ShapeClass::DeepRecursion, 0..10);
        assert!(
            rec.recursive_funcs > 0,
            "recursion corpora must have cycles"
        );

        let fnptr = stats_over(ShapeClass::FnPtrHeavy, 0..10);
        assert!(
            fnptr.address_taken_funcs > 0,
            "fnptr corpora take addresses"
        );
        assert!(fnptr.indirect_sites > 0, "fnptr corpora call indirectly");
        assert!(
            fnptr.open_funcs > fnptr.funcs / 10,
            "address-taking must force open procedures"
        );

        let arity = stats_over(ShapeClass::VariedArity, 0..10);
        assert!(
            arity.max_arity >= 6,
            "arity corpora exceed the register file"
        );
    }

    /// Shape stats flow into the `ipra-obs` registry as module-level
    /// counters.
    #[test]
    fn shape_stats_are_recorded_as_counters() {
        let cfg = ShapeConfig::new(ShapeClass::FnPtrHeavy);
        let module = ipra_frontend::compile(&shaped_source(3, &cfg)).unwrap();
        let stats = ShapeStats::collect(&module);

        ipra_obs::enable();
        stats.record();
        let trace = ipra_obs::disable();
        let m = &trace.metrics;
        assert_eq!(m.counter_value("shape.funcs", &[]), stats.funcs as u64);
        assert_eq!(
            m.counter_value("shape.open_funcs", &[]),
            stats.open_funcs as u64
        );
    }
}

//! Incremental allocation cache with summary-keyed early cutoff.
//!
//! Chow's one-pass scheme (paper §2–§4, §6) makes a caller's allocation
//! depend on a callee only through the callee's exported register-usage
//! summary and whole-tree usage mask. The cache exploits exactly that: the
//! key of a component covers the structural hash of its member bodies, the
//! target/options fingerprint, and the *bytes* of every external callee
//! summary it consumes — not the callee's own body hash. A callee body
//! edit that leaves its summary and tree-usage mask unchanged therefore
//! produces the *same* key in every caller, and invalidation stops there
//! (early cutoff) without any explicit propagation machinery.
//!
//! The unit of caching is the SCC component, matching the unit of work of
//! the wave scheduler: members of a mutual-recursion component see each
//! other during allocation, so they hit or miss together.
//!
//! Persistence is *sharded*: one JSON document per component entry
//! (`<key>.ce.json` under the cache directory), written through the
//! in-tree `ipra-obs` JSON layer. Sharding keeps concurrent compiles
//! sharing one cache directory from serializing on a single file — each
//! process writes only the entries it computed, through its own temp file
//! and an atomic rename, so the worst concurrent case is two processes
//! racing to publish the *same* (byte-identical, key-addressed) entry.
//! Loading is lazy and tolerant: entries are read on first lookup, and an
//! unreadable, unparsable, or version-mismatched file behaves like an
//! absent entry; a stale entry that names functions or globals absent
//! from the current module decodes to a miss. Saving never fails a
//! compile.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ipra_ir::{BinOp, BlockId, Callee, EntityVec, Fnv64, FuncId, Inst, Module, UnOp};
use ipra_machine::{
    FrameSlot, MAddress, MBlock, MCallee, MFunction, MInst, MOperand, MTerminator, MemClass, PReg,
    RegMask, SlotPurpose, Target,
};
use ipra_obs::json::{self, Json};

use crate::alloc::{FuncArtifacts, SummaryEnv};
use crate::color::VregLoc;
use crate::config::{AllocMode, AllocOptions};
use crate::summary::{FuncSummary, ParamLoc};

/// Bumped whenever the key derivation, the entry encoding, or the on-disk
/// layout changes; files written by another version load as empty.
/// Version 3 moved from one `ipra-cache.json` document to one
/// `<key>.ce.json` file per component entry. Version 4 folded the
/// inline configuration into the config fingerprint. Version 5 dropped
/// the per-function open bit, which the summary's default flag carries.
pub const CACHE_FORMAT_VERSION: i64 = 5;

/// Outcome counters of one compile with the cache enabled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whether a cache directory was configured for this compile.
    pub enabled: bool,
    /// Functions replayed from the cache.
    pub hits: u64,
    /// Functions allocated and lowered from scratch.
    pub misses: u64,
    /// Hits with at least one recompiled direct callee — callers where
    /// invalidation stopped because the callee's summary bytes were
    /// unchanged (the early-cutoff events).
    pub cutoffs: u64,
    /// Names of the functions that were recompiled, in `FuncId` order.
    pub recompiled: Vec<String>,
}

/// The one record of a compiled function: its lowered machine code, the
/// interface published to callers, and its report statistics. A wave task
/// builds it right after lowering (`CachedFunc::new`) and a cache hit
/// decodes it; the driver reads both alike, and stores the fresh ones as
/// they are. A function was treated as open exactly when its summary is
/// the default one.
#[derive(Clone, Debug)]
pub struct CachedFunc {
    /// Function name (guards against key collisions and stale entries).
    pub name: String,
    /// The lowered machine code.
    pub code: MFunction,
    /// The summary published to callers.
    pub summary: FuncSummary,
    /// Whole-call-tree register usage (the Fig. 1 tie-break input).
    pub tree_used: RegMask,
    /// Registers the assignment uses.
    pub used: RegMask,
    /// Callee-saved registers saved locally.
    pub locally_saved: RegMask,
    /// Shrink-wrap range-extension iterations.
    pub shrink_iterations: u32,
    /// Report statistic: vregs left fully in memory.
    pub memory_vregs: usize,
    /// Report statistic: vregs split between registers and memory.
    pub split_vregs: usize,
    /// Report statistic: total referenced vregs.
    pub candidate_vregs: usize,
}

impl CachedFunc {
    /// The record of a function allocated (`art`) and lowered (`code`) in
    /// this compile.
    pub(crate) fn new(name: String, art: &FuncArtifacts, code: MFunction) -> CachedFunc {
        let a = &art.alloc;
        let (mut memory_vregs, mut split_vregs, mut candidate_vregs) = (0, 0, 0);
        for lr in art.ranges.ranges.iter().filter(|lr| lr.is_candidate()) {
            candidate_vregs += 1;
            if a.assignment.is_split(lr.vreg) {
                split_vregs += 1;
            } else if a.assignment.whole[lr.vreg.index()] == VregLoc::Mem {
                memory_vregs += 1;
            }
        }
        CachedFunc {
            name,
            code,
            summary: a.summary.clone(),
            tree_used: a.tree_used,
            used: a.assignment.used,
            locally_saved: a.locally_saved,
            shrink_iterations: a.save_plan.iterations,
            memory_vregs,
            split_vregs,
            candidate_vregs,
        }
    }
}

/// Fingerprint of everything outside the IR that allocation output depends
/// on: the register file, the cost model, and every [`AllocOptions`] field
/// except `jobs` and `cache_dir` (which never change the produced code).
pub fn config_fingerprint(target: &Target, opts: &AllocOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_i64(CACHE_FORMAT_VERSION);
    // The whole register-file layout — names, classes, allocatable order,
    // argument registers, reserved positions — via the target-level
    // fingerprint, so any convention partition or arg-count change
    // separates cache keys (and layout-identical named targets share
    // them). The derived masks are folded in as a redundant guard.
    let regs = &target.regs;
    h.write_u64(regs.fingerprint());
    h.write_u32(regs.default_clobbers().0);
    h.write_u32(regs.callee_saved_mask().0);

    let c = &target.cost;
    for v in [
        c.alu, c.mul, c.div, c.load, c.store, c.branch, c.call, c.ret, c.print,
    ] {
        h.write_u64(v);
    }

    h.write_u8(match opts.mode {
        AllocMode::NoAlloc => 0,
        AllocMode::Intra => 1,
        AllocMode::Inter => 2,
    });
    h.write_u8(opts.shrink_wrap as u8);
    h.write_u8(opts.custom_param_regs as u8);
    h.write_u8(opts.promote_globals as u8);
    h.write_u8(opts.split_ranges as u8);
    let mut forced: Vec<&String> = opts.forced_open.iter().collect();
    forced.sort();
    h.write_usize(forced.len());
    for f in forced {
        h.write_str(f);
    }
    // The budget only separates keys while inlining is on.
    if opts.inline {
        h.write_u8(1);
        h.write_u32(opts.inline_budget);
    } else {
        h.write_u8(0);
    }
    h.finish()
}

/// The cache key of one SCC component against the current environment.
///
/// Covers, per member in component order: the structural body hash, the
/// open/closed decision, the profile weights (when feeding back a
/// profile), and — for every call site in body order — the *external
/// inputs* the allocator reads for that site: nothing for an
/// intra-component callee beyond its position, and the summary bytes plus
/// tree-usage mask for a callee below this component. Because summaries
/// are compared by value, a recompiled callee with unchanged summary
/// yields an unchanged key here: the early cutoff.
#[allow(clippy::too_many_arguments)]
pub fn component_key(
    module: &Module,
    body_hashes: &[u64],
    comp: &[FuncId],
    is_open: impl Fn(FuncId) -> bool,
    fingerprint: u64,
    inter: bool,
    env: &SummaryEnv,
    profile: Option<&[Vec<u64>]>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(fingerprint);
    h.write_usize(comp.len());
    for &fid in comp {
        let func = &module.funcs[fid];
        h.write_u64(body_hashes[fid.index()]);
        h.write_u8(is_open(fid) as u8);
        match profile.map(|p| &p[fid.index()]) {
            Some(counts) => {
                h.write_u8(1);
                h.write_usize(counts.len());
                for &c in counts.iter() {
                    h.write_u64(c);
                }
            }
            None => h.write_u8(0),
        }
        for (_, b) in func.blocks.iter() {
            for inst in &b.insts {
                let Inst::Call { callee, .. } = inst else {
                    continue;
                };
                match callee {
                    Callee::Indirect(_) => h.write_u8(0),
                    Callee::Direct(c) => {
                        if let Some(pos) = comp.iter().position(|m| m == c) {
                            h.write_u8(1);
                            h.write_usize(pos);
                        } else {
                            h.write_u8(2);
                            hash_callee_inputs(&mut h, inter, env, *c);
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

/// Absorbs what the allocator reads about one external callee: its summary
/// bytes (consulted only under inter-procedural allocation) and its
/// whole-tree usage mask (consulted always).
fn hash_callee_inputs(h: &mut Fnv64, inter: bool, env: &SummaryEnv, callee: FuncId) {
    if inter {
        match env.summaries.get(&callee) {
            Some(s) => {
                h.write_u8(1);
                h.write_u32(s.clobbers.0);
                h.write_usize(s.param_locs.len());
                for l in &s.param_locs {
                    match l {
                        ParamLoc::Reg(r) => {
                            h.write_u8(0);
                            h.write_u8(r.0);
                        }
                        ParamLoc::Stack(i) => {
                            h.write_u8(1);
                            h.write_u32(*i);
                        }
                        ParamLoc::Ignored => h.write_u8(2),
                    }
                }
                h.write_u8(s.is_default as u8);
            }
            None => h.write_u8(0),
        }
    } else {
        h.write_u8(2);
    }
    match env.tree_used.get(&callee) {
        Some(m) => {
            h.write_u8(1);
            h.write_u32(m.0);
        }
        None => h.write_u8(0),
    }
}

/// The on-disk allocation cache: `key → [cached function, ...]` with one
/// entry per SCC component, persisted as one `<key:016x>.ce.json` file
/// per entry under the cache directory.
#[derive(Debug)]
pub struct AllocCache {
    dir: PathBuf,
    /// Entries inserted by this compile, pending [`AllocCache::save`].
    /// Lookups read only the shard files: a compile inserts after its
    /// last lookup.
    dirty: BTreeMap<u64, Json>,
}

/// File name of the shard holding `key`.
fn shard_name(key: u64) -> String {
    format!("{key:016x}.ce.json")
}

impl AllocCache {
    /// Opens the cache at `dir`. No I/O happens here: entries are read
    /// lazily on [`AllocCache::lookup`], so opening a huge shared cache
    /// costs nothing and concurrent processes never contend on open.
    pub fn load(dir: &Path) -> AllocCache {
        AllocCache {
            dir: dir.to_path_buf(),
            dirty: BTreeMap::new(),
        }
    }

    /// Number of cached components on disk or pending save.
    pub fn len(&self) -> usize {
        let mut keys: std::collections::BTreeSet<u64> = self.dirty.keys().copied().collect();
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for entry in rd.flatten() {
                if let Some(key) = entry
                    .file_name()
                    .to_str()
                    .and_then(|n| n.strip_suffix(".ce.json"))
                    .and_then(|k| u64::from_str_radix(k, 16).ok())
                {
                    keys.insert(key);
                }
            }
        }
        keys.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the shard file under `key` and decodes its entry against the
    /// current module; an entry inserted but not yet saved is not seen.
    /// Returns `None` — a plain miss — when the key is absent, its file is
    /// unreadable, unparsable or version-skewed, or the entry is stale
    /// (names a function or global the module no longer has).
    pub fn lookup(&self, key: u64, module: &Module) -> Option<Vec<CachedFunc>> {
        let text = std::fs::read_to_string(self.dir.join(shard_name(key))).ok()?;
        let doc = json::parse(&text).ok()?;
        if doc.get("version").and_then(Json::as_i64) != Some(CACHE_FORMAT_VERSION) {
            return None;
        }
        let arr = doc.get("funcs")?.as_arr()?;
        let mut out = Vec::with_capacity(arr.len());
        for v in arr {
            out.push(dec_cached(v, module)?);
        }
        Some(out)
    }

    /// Stores one component's results under `key` (pending save).
    pub fn insert(&mut self, key: u64, funcs: &[CachedFunc], module: &Module) {
        self.dirty.insert(
            key,
            Json::Arr(funcs.iter().map(|c| enc_cached(c, module)).collect()),
        );
    }

    /// Writes every pending entry to its own shard file. Best-effort: the
    /// directory is created if missing, each shard goes through a
    /// process- *and thread-unique* temp file + atomic rename, and I/O
    /// errors are swallowed (a failed save costs a future miss, never a
    /// failed compile).
    ///
    /// Uniqueness matters twice over: the pid component keeps concurrent
    /// *processes* sharing a cache directory apart, and the global
    /// sequence number keeps concurrent *threads of one process* (a
    /// compile daemon's in-flight requests publishing the same key) from
    /// reusing one temp path — with a pid-only name, one thread could
    /// rename a temp file another thread was still writing, publishing a
    /// torn entry.
    pub fn save(&self) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        if self.dirty.is_empty() {
            return;
        }
        let _ = std::fs::create_dir_all(&self.dir);
        for (key, funcs) in &self.dirty {
            let doc = Json::obj(vec![
                ("version", Json::Int(CACHE_FORMAT_VERSION)),
                ("funcs", funcs.clone()),
            ]);
            let tmp = self.dir.join(format!(
                "{key:016x}.{}.{}.tmp",
                std::process::id(),
                SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            if std::fs::write(&tmp, doc.render()).is_ok()
                && std::fs::rename(&tmp, self.dir.join(shard_name(*key))).is_err()
            {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry encoding: one compact whitespace-separated token string per cached
// function, stored as a single JSON string.
//
// The first version encoded machine code as nested JSON arrays; parsing
// those dominated the warm path (hundreds of thousands of small `Json`
// nodes), making a warm compile as slow as a cold one. A blob is one node:
// the JSON parser memcpys it, and the token scanner below decodes it with
// no intermediate allocation.
//
// Cross-function references (direct callees, function addresses, globals)
// are stored by *name* and remapped to the current module's ids on decode,
// for the same reason the structural hash uses names: entity ids shift when
// unrelated functions are added or removed. Names are percent-encoded so a
// token never contains whitespace (or JSON-escaped characters), and carry a
// `~` sentinel so the empty string stays a valid token.

struct Enc {
    buf: String,
}

impl Enc {
    fn new() -> Enc {
        Enc {
            buf: String::with_capacity(256),
        }
    }

    fn raw(&mut self, t: &str) {
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
        self.buf.push_str(t);
    }

    fn num(&mut self, v: impl std::fmt::Display) {
        use std::fmt::Write;
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
        let _ = write!(self.buf, "{v}");
    }

    /// `<prefix><number>` as one token (operands, compact markers).
    fn pnum(&mut self, prefix: char, v: impl std::fmt::Display) {
        use std::fmt::Write;
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
        self.buf.push(prefix);
        let _ = write!(self.buf, "{v}");
    }

    fn bit(&mut self, b: bool) {
        self.raw(if b { "1" } else { "0" });
    }

    fn name(&mut self, s: &str) {
        use std::fmt::Write;
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
        self.buf.push('~');
        for b in s.bytes() {
            match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.' | b'$' | b'@' | b'-' => {
                    self.buf.push(b as char)
                }
                _ => {
                    let _ = write!(self.buf, "%{b:02x}");
                }
            }
        }
    }

    fn operand(&mut self, op: MOperand) {
        match op {
            MOperand::Reg(r) => self.pnum('r', r.0),
            MOperand::Imm(i) => self.pnum('i', i),
        }
    }

    fn address(&mut self, addr: MAddress, module: &Module) {
        match addr {
            MAddress::Global { global, index } => {
                self.raw("g");
                self.name(&module.globals[global].name);
                self.operand(index);
            }
            MAddress::Frame { slot, index } => {
                self.pnum('f', slot.index());
                self.operand(index);
            }
            MAddress::Incoming(i) => self.pnum('n', i),
            MAddress::Outgoing(i) => self.pnum('o', i),
        }
    }
}

/// Token reader over one blob. Every accessor returns `None` on malformed
/// input, which surfaces as a cache miss.
struct Dec<'a> {
    it: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Dec<'a> {
    fn new(blob: &'a str) -> Dec<'a> {
        Dec {
            it: blob.split_ascii_whitespace(),
        }
    }

    fn tok(&mut self) -> Option<&'a str> {
        self.it.next()
    }

    fn u32(&mut self) -> Option<u32> {
        self.tok()?.parse().ok()
    }

    fn usize(&mut self) -> Option<usize> {
        self.tok()?.parse().ok()
    }

    fn preg(&mut self) -> Option<PReg> {
        Some(PReg(self.tok()?.parse().ok()?))
    }

    fn mask(&mut self) -> Option<RegMask> {
        Some(RegMask(self.u32()?))
    }

    fn bit(&mut self) -> Option<bool> {
        match self.tok()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }

    fn name(&mut self) -> Option<String> {
        unesc_name(self.tok()?)
    }

    fn operand_tok(t: &str) -> Option<MOperand> {
        match t.as_bytes().first()? {
            b'r' => Some(MOperand::Reg(PReg(t[1..].parse().ok()?))),
            b'i' => Some(MOperand::Imm(t[1..].parse().ok()?)),
            _ => None,
        }
    }

    fn operand(&mut self) -> Option<MOperand> {
        Self::operand_tok(self.tok()?)
    }

    fn address(&mut self, module: &Module) -> Option<MAddress> {
        let t = self.tok()?;
        match t.as_bytes().first()? {
            b'g' if t == "g" => Some(MAddress::Global {
                global: module.global_by_name(&self.name()?)?,
                index: self.operand()?,
            }),
            b'f' => Some(MAddress::Frame {
                slot: ipra_machine::FrameSlotId(t[1..].parse().ok()?),
                index: self.operand()?,
            }),
            b'n' => Some(MAddress::Incoming(t[1..].parse().ok()?)),
            b'o' => Some(MAddress::Outgoing(t[1..].parse().ok()?)),
            _ => None,
        }
    }
}

fn unesc_name(t: &str) -> Option<String> {
    let t = t.strip_prefix('~')?;
    let mut out = String::with_capacity(t.len());
    let b = t.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'%' {
            let hex = t.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()? as char);
            i += 3;
        } else {
            out.push(b[i] as char);
            i += 1;
        }
    }
    Some(out)
}

fn enc_inst(e: &mut Enc, inst: &MInst, module: &Module) {
    match inst {
        MInst::Copy { dst, src } => {
            e.raw("c");
            e.num(dst.0);
            e.operand(*src);
        }
        MInst::Bin { op, dst, lhs, rhs } => {
            e.raw(op.mnemonic());
            e.num(dst.0);
            e.operand(*lhs);
            e.operand(*rhs);
        }
        MInst::Un { op, dst, src } => {
            e.raw(op.mnemonic());
            e.num(dst.0);
            e.operand(*src);
        }
        MInst::Load { dst, addr, class } => {
            e.raw("l");
            e.num(dst.0);
            e.address(*addr, module);
            e.raw(enc_class(*class));
        }
        MInst::Store { src, addr, class } => {
            e.raw("s");
            e.operand(*src);
            e.address(*addr, module);
            e.raw(enc_class(*class));
        }
        MInst::Call {
            callee,
            num_stack_args,
        } => match callee {
            MCallee::Direct(f) => {
                e.raw("k");
                e.name(&module.funcs[*f].name);
                e.num(*num_stack_args);
            }
            MCallee::Indirect(op) => {
                e.raw("ki");
                e.operand(*op);
                e.num(*num_stack_args);
            }
        },
        MInst::FuncAddr { dst, func } => {
            e.raw("fa");
            e.num(dst.0);
            e.name(&module.funcs[*func].name);
        }
        MInst::Print { arg } => {
            e.raw("p");
            e.operand(*arg);
        }
    }
}

fn dec_inst(d: &mut Dec, module: &Module) -> Option<MInst> {
    match d.tok()? {
        "c" => Some(MInst::Copy {
            dst: d.preg()?,
            src: d.operand()?,
        }),
        "l" => Some(MInst::Load {
            dst: d.preg()?,
            addr: d.address(module)?,
            class: dec_class(d.tok()?)?,
        }),
        "s" => Some(MInst::Store {
            src: d.operand()?,
            addr: d.address(module)?,
            class: dec_class(d.tok()?)?,
        }),
        "k" => Some(MInst::Call {
            callee: MCallee::Direct(module.func_by_name(&d.name()?)?),
            num_stack_args: d.u32()?,
        }),
        "ki" => Some(MInst::Call {
            callee: MCallee::Indirect(d.operand()?),
            num_stack_args: d.u32()?,
        }),
        "fa" => Some(MInst::FuncAddr {
            dst: d.preg()?,
            func: module.func_by_name(&d.name()?)?,
        }),
        "p" => Some(MInst::Print { arg: d.operand()? }),
        "neg" => Some(MInst::Un {
            op: UnOp::Neg,
            dst: d.preg()?,
            src: d.operand()?,
        }),
        "not" => Some(MInst::Un {
            op: UnOp::Not,
            dst: d.preg()?,
            src: d.operand()?,
        }),
        m => Some(MInst::Bin {
            op: BinOp::ALL.iter().copied().find(|o| o.mnemonic() == m)?,
            dst: d.preg()?,
            lhs: d.operand()?,
            rhs: d.operand()?,
        }),
    }
}

fn enc_term(e: &mut Enc, t: &MTerminator) {
    match t {
        MTerminator::Ret => e.raw("t"),
        MTerminator::Br(b) => e.pnum('j', b.index()),
        MTerminator::CondBr {
            cond,
            then_to,
            else_to,
        } => {
            e.raw("z");
            e.operand(*cond);
            e.num(then_to.index());
            e.num(else_to.index());
        }
    }
}

fn dec_term(d: &mut Dec) -> Option<MTerminator> {
    let t = d.tok()?;
    match t.as_bytes().first()? {
        b't' if t == "t" => Some(MTerminator::Ret),
        b'j' => Some(MTerminator::Br(BlockId(t[1..].parse().ok()?))),
        b'z' if t == "z" => Some(MTerminator::CondBr {
            cond: d.operand()?,
            then_to: BlockId(d.u32()?),
            else_to: BlockId(d.u32()?),
        }),
        _ => None,
    }
}

fn enc_class(c: MemClass) -> &'static str {
    match c {
        MemClass::Data => "d",
        MemClass::ScalarHome => "h",
        MemClass::Spill => "x",
        MemClass::SaveRestore => "v",
    }
}

fn dec_class(t: &str) -> Option<MemClass> {
    match t {
        "d" => Some(MemClass::Data),
        "h" => Some(MemClass::ScalarHome),
        "x" => Some(MemClass::Spill),
        "v" => Some(MemClass::SaveRestore),
        _ => None,
    }
}

fn enc_purpose(p: SlotPurpose) -> &'static str {
    match p {
        SlotPurpose::Home => "h",
        SlotPurpose::Array => "a",
        SlotPurpose::Save => "s",
        SlotPurpose::Outgoing => "o",
    }
}

fn dec_purpose(t: &str) -> Option<SlotPurpose> {
    match t {
        "h" => Some(SlotPurpose::Home),
        "a" => Some(SlotPurpose::Array),
        "s" => Some(SlotPurpose::Save),
        "o" => Some(SlotPurpose::Outgoing),
        _ => None,
    }
}

fn enc_mfunction(e: &mut Enc, f: &MFunction, module: &Module) {
    e.name(&f.name);
    e.num(f.entry.index());
    e.num(f.num_params);
    e.num(f.max_outgoing);
    e.bit(f.is_leaf);
    e.num(f.frame.len());
    for slot in f.frame.values() {
        e.num(slot.size);
        e.raw(enc_purpose(slot.purpose));
        e.name(&slot.label);
    }
    e.num(f.blocks.len());
    for b in f.blocks.values() {
        e.num(b.insts.len());
        for i in &b.insts {
            enc_inst(e, i, module);
        }
        enc_term(e, &b.term);
    }
}

fn dec_mfunction(d: &mut Dec, module: &Module) -> Option<MFunction> {
    let name = d.name()?;
    let entry = BlockId(d.u32()?);
    let num_params = d.usize()?;
    let max_outgoing = d.u32()?;
    let is_leaf = d.bit()?;
    let mut frame = EntityVec::new();
    for _ in 0..d.usize()? {
        frame.push(FrameSlot {
            size: d.u32()?,
            purpose: dec_purpose(d.tok()?)?,
            label: d.name()?,
        });
    }
    let mut blocks = EntityVec::new();
    for _ in 0..d.usize()? {
        let n = d.usize()?;
        let mut insts = Vec::with_capacity(n);
        for _ in 0..n {
            insts.push(dec_inst(d, module)?);
        }
        blocks.push(MBlock {
            insts,
            term: dec_term(d)?,
        });
    }
    Some(MFunction {
        name,
        entry,
        blocks,
        frame,
        num_params,
        max_outgoing,
        is_leaf,
    })
}

fn enc_cached(c: &CachedFunc, module: &Module) -> Json {
    let mut e = Enc::new();
    e.name(&c.name);
    e.num(c.summary.clobbers.0);
    e.num(c.summary.param_locs.len());
    for l in &c.summary.param_locs {
        match l {
            ParamLoc::Reg(r) => e.pnum('r', r.0),
            ParamLoc::Stack(i) => e.pnum('s', *i),
            ParamLoc::Ignored => e.raw("x"),
        }
    }
    e.bit(c.summary.is_default);
    e.num(c.tree_used.0);
    e.num(c.used.0);
    e.num(c.locally_saved.0);
    e.num(c.shrink_iterations);
    e.num(c.memory_vregs);
    e.num(c.split_vregs);
    e.num(c.candidate_vregs);
    enc_mfunction(&mut e, &c.code, module);
    Json::Str(e.buf)
}

fn dec_cached(v: &Json, module: &Module) -> Option<CachedFunc> {
    let mut d = Dec::new(v.as_str()?);
    let name = d.name()?;
    let clobbers = d.mask()?;
    let mut param_locs = Vec::new();
    for _ in 0..d.usize()? {
        let t = d.tok()?;
        param_locs.push(match t.as_bytes().first()? {
            b'r' => ParamLoc::Reg(PReg(t[1..].parse().ok()?)),
            b's' => ParamLoc::Stack(t[1..].parse().ok()?),
            b'x' if t == "x" => ParamLoc::Ignored,
            _ => return None,
        });
    }
    let summary = FuncSummary {
        clobbers,
        param_locs,
        is_default: d.bit()?,
    };
    Some(CachedFunc {
        name,
        summary,
        tree_used: d.mask()?,
        used: d.mask()?,
        locally_saved: d.mask()?,
        shrink_iterations: d.u32()?,
        memory_vregs: d.usize()?,
        split_vregs: d.usize()?,
        candidate_vregs: d.usize()?,
        code: dec_mfunction(&mut d, module)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::Operand;

    /// A fresh directory under the workspace's build directory (the
    /// crate reads no environment, its tests included).
    fn test_dir(tag: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("ipra-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn demo_module() -> Module {
        let mut m = Module::new();
        let leaf = m.declare_func("leaf");
        let top = m.declare_func("top");
        m.add_global(ipra_ir::GlobalData {
            name: "g".into(),
            size: 2,
            init: Vec::new(),
        });
        {
            let mut b = FunctionBuilder::new("leaf");
            let p = b.param("p");
            let r = b.bin(BinOp::Add, p, 1);
            b.ret(Some(r.into()));
            m.define_func(leaf, b.build());
        }
        {
            let mut b = FunctionBuilder::new("top");
            let r = b.call(leaf, vec![Operand::Imm(7)]);
            b.print(r);
            b.ret(None);
            m.define_func(top, b.build());
        }
        m.main = Some(top);
        m
    }

    fn compiled_cached_funcs(module: &Module) -> Vec<CachedFunc> {
        let target = Target::mips_like();
        let opts = AllocOptions::o3();
        let compiled = crate::ipra::compile_module(module, &target, &opts);
        module
            .funcs
            .iter()
            .map(|(fid, f)| CachedFunc {
                name: f.name.clone(),
                code: compiled.mmodule.funcs[fid].clone(),
                summary: compiled.summaries[fid.index()].clone(),
                tree_used: compiled.reports[fid.index()].used,
                used: compiled.reports[fid.index()].used,
                locally_saved: compiled.reports[fid.index()].locally_saved,
                shrink_iterations: compiled.reports[fid.index()].shrink_iterations,
                memory_vregs: compiled.reports[fid.index()].memory_vregs,
                split_vregs: compiled.reports[fid.index()].split_vregs,
                candidate_vregs: compiled.reports[fid.index()].candidate_vregs,
            })
            .collect()
    }

    #[test]
    fn round_trips_real_machine_code_through_disk() {
        let module = demo_module();
        let funcs = compiled_cached_funcs(&module);
        let dir = test_dir("roundtrip");

        let mut cache = AllocCache::load(&dir);
        assert!(cache.is_empty());
        cache.insert(42, &funcs, &module);
        cache.save();

        let cache2 = AllocCache::load(&dir);
        assert_eq!(cache2.len(), 1);
        let back = cache2.lookup(42, &module).expect("entry decodes");
        assert_eq!(back.len(), funcs.len());
        for (orig, dec) in funcs.iter().zip(&back) {
            assert_eq!(orig.name, dec.name);
            assert_eq!(orig.summary, dec.summary);
            assert_eq!(orig.tree_used, dec.tree_used);
            // MFunction has no PartialEq; compare the blocks (which do)
            // and the frame labels.
            assert_eq!(orig.code.blocks.len(), dec.code.blocks.len());
            for (a, b) in orig.code.blocks.values().zip(dec.code.blocks.values()) {
                assert_eq!(a, b);
            }
            assert_eq!(orig.code.frame.len(), dec.code.frame.len());
            for (a, b) in orig.code.frame.values().zip(dec.code.frame.values()) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.size, b.size);
                assert_eq!(a.purpose, b.purpose);
            }
            assert_eq!(orig.code.is_leaf, dec.code.is_leaf);
            assert_eq!(orig.code.num_params, dec.code.num_params);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_stale_shards_decode_to_misses() {
        let dir = test_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let module = demo_module();

        // Garbage, version skew, and a malformed blob: each shard decodes
        // to a miss, never a panic.
        std::fs::write(dir.join(shard_name(0x01)), "{ not json !!").unwrap();
        std::fs::write(
            dir.join(shard_name(0x02)),
            r#"{"version":999,"funcs":["~f 0"]}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join(shard_name(0x03)),
            r#"{"version":3,"funcs":["! bogus"]}"#,
        )
        .unwrap();
        // Files that are not shards at all (the pre-v3 monolithic layout,
        // a stray temp file, a bad hex name) are ignored by the scan.
        std::fs::write(dir.join("ipra-cache.json"), "{}").unwrap();
        std::fs::write(dir.join("zz.ce.json"), "{}").unwrap();

        let c = AllocCache::load(&dir);
        for key in [0x01, 0x02, 0x03, 0x04] {
            assert!(c.lookup(key, &module).is_none(), "key {key:#x} must miss");
        }
        assert_eq!(c.len(), 3, "only well-named shards are counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two caches sharing one directory: each saves only what it
    /// computed, and both entries are visible afterwards — the concurrent
    /// fuzz-process layout.
    #[test]
    fn independent_saves_into_one_directory_do_not_clobber() {
        let module = demo_module();
        let funcs = compiled_cached_funcs(&module);
        let dir = test_dir("shared");

        let mut a = AllocCache::load(&dir);
        a.insert(1, &funcs, &module);
        let mut b = AllocCache::load(&dir);
        b.insert(2, &funcs, &module);
        a.save();
        b.save();

        let c = AllocCache::load(&dir);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(1, &module).is_some());
        assert!(c.lookup(2, &module).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_entry_naming_missing_function_is_a_miss() {
        let module = demo_module();
        let funcs = compiled_cached_funcs(&module);
        let dir = test_dir("stale");
        let mut cache = AllocCache::load(&dir);
        cache.insert(7, &funcs, &module);
        cache.save();
        let cache = AllocCache::load(&dir);
        assert!(
            cache.lookup(7, &module).is_some(),
            "the saved entry decodes"
        );

        // A module without `leaf` cannot replay code that calls it.
        let mut other = Module::new();
        let main = other.declare_func("top");
        {
            let mut b = FunctionBuilder::new("top");
            b.ret(None);
            other.define_func(main, b.build());
        }
        assert!(cache.lookup(7, &other).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let t = Target::mips_like();
        let o3 = config_fingerprint(&t, &AllocOptions::o3());
        assert_eq!(o3, config_fingerprint(&t, &AllocOptions::o3()));
        assert_ne!(o3, config_fingerprint(&t, &AllocOptions::o2_base()));
        assert_ne!(
            o3,
            config_fingerprint(&t, &AllocOptions::o3_no_shrink_wrap())
        );
        assert_ne!(
            o3,
            config_fingerprint(&t, &AllocOptions::o3().force_open("x"))
        );
        assert_ne!(
            o3,
            config_fingerprint(&Target::with_class_limits(7, 0), &AllocOptions::o3())
        );
        // jobs and cache_dir do not affect output, so not the key either.
        assert_eq!(o3, config_fingerprint(&t, &AllocOptions::o3().with_jobs(4)));
        assert_eq!(
            o3,
            config_fingerprint(&t, &AllocOptions::o3().with_cache_dir("/tmp/c"))
        );
    }

    #[test]
    fn component_key_tracks_summary_bytes_not_callee_identity() {
        let module = demo_module();
        let leaf = module.func_by_name("leaf").unwrap();
        let top = module.func_by_name("top").unwrap();
        let fp = config_fingerprint(&Target::mips_like(), &AllocOptions::o3());
        let open = |_| false;
        let hashes = ipra_ir::hash_all_functions(&module);

        let mut env = SummaryEnv::default();
        let base = component_key(&module, &hashes, &[top], open, fp, true, &env, None);
        assert_eq!(
            base,
            component_key(&module, &hashes, &[top], open, fp, true, &env, None),
            "key is deterministic"
        );

        // Publishing the callee's summary changes top's key...
        let regs = ipra_machine::RegFile::mips_like();
        env.summaries
            .insert(leaf, FuncSummary::default_for(&regs, 1));
        env.tree_used.insert(leaf, RegMask(0b1010));
        let with_summary = component_key(&module, &hashes, &[top], open, fp, true, &env, None);
        assert_ne!(base, with_summary);

        // ...but re-publishing byte-identical values does not (early cutoff).
        let mut env2 = SummaryEnv::default();
        env2.summaries
            .insert(leaf, FuncSummary::default_for(&regs, 1));
        env2.tree_used.insert(leaf, RegMask(0b1010));
        assert_eq!(
            with_summary,
            component_key(&module, &hashes, &[top], open, fp, true, &env2, None)
        );

        // A different clobber mask changes the key.
        env2.summaries.get_mut(&leaf).unwrap().clobbers = RegMask(0b1);
        assert_ne!(
            with_summary,
            component_key(&module, &hashes, &[top], open, fp, true, &env2, None)
        );

        // A profile is part of the key.
        let profile: Vec<Vec<u64>> = vec![vec![1], vec![5, 5]];
        assert_ne!(
            with_summary,
            component_key(
                &module,
                &hashes,
                &[top],
                open,
                fp,
                true,
                &env,
                Some(&profile)
            )
        );
    }
}

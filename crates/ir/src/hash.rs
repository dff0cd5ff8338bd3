//! Deterministic structural hashing of IR functions.
//!
//! The incremental-compilation cache keys allocation results by the
//! *content* of a function, so the hash must be stable across processes
//! (std's `DefaultHasher` is randomly keyed and useless here) and
//! independent of entity-id churn: adding or removing an unrelated
//! function shifts every `FuncId`/`GlobalId` in the module, but must not
//! change the hash of untouched functions. Cross-function references
//! (direct callees, function addresses, globals) are therefore hashed by
//! *name*; blocks and virtual registers are positional within the
//! function and hashed by index.

use crate::function::Function;
use crate::ids::FuncId;
use crate::instr::{Address, Callee, Inst, Operand, Terminator};
use crate::module::Module;

/// Incremental FNV-1a 64-bit hasher. Chosen for being trivially
/// deterministic and dependency-free; collision resistance is adequate
/// because a key mismatch only costs a cache miss, never wrong output
/// (a colliding *hit* is guarded by the cached entry's function names).
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `i64`.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Absorbs a `usize` (widened to 64 bits for portability).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a length-prefixed string (prefix avoids concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

fn hash_operand(h: &mut Fnv64, op: Operand) {
    match op {
        Operand::Reg(v) => {
            h.write_u8(0);
            h.write_u32(v.0);
        }
        Operand::Imm(i) => {
            h.write_u8(1);
            h.write_i64(i);
        }
    }
}

fn hash_address(h: &mut Fnv64, module: &Module, addr: Address) {
    match addr {
        Address::Global { global, index } => {
            h.write_u8(0);
            h.write_str(&module.globals[global].name);
            hash_operand(h, index);
        }
        Address::Stack { slot, index } => {
            h.write_u8(1);
            h.write_u32(slot.0);
            hash_operand(h, index);
        }
    }
}

fn hash_inst(h: &mut Fnv64, module: &Module, inst: &Inst) {
    match inst {
        Inst::Copy { dst, src } => {
            h.write_u8(0);
            h.write_u32(dst.0);
            hash_operand(h, *src);
        }
        Inst::Bin { op, dst, lhs, rhs } => {
            h.write_u8(1);
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            hash_operand(h, *lhs);
            hash_operand(h, *rhs);
        }
        Inst::Un { op, dst, src } => {
            h.write_u8(2);
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            hash_operand(h, *src);
        }
        Inst::Load { dst, addr } => {
            h.write_u8(3);
            h.write_u32(dst.0);
            hash_address(h, module, *addr);
        }
        Inst::Store { src, addr } => {
            h.write_u8(4);
            hash_operand(h, *src);
            hash_address(h, module, *addr);
        }
        Inst::Call { callee, args, dst } => {
            h.write_u8(5);
            match callee {
                Callee::Direct(f) => {
                    h.write_u8(0);
                    h.write_str(&module.funcs[*f].name);
                }
                Callee::Indirect(t) => {
                    h.write_u8(1);
                    hash_operand(h, *t);
                }
            }
            h.write_usize(args.len());
            for a in args {
                hash_operand(h, *a);
            }
            match dst {
                Some(d) => {
                    h.write_u8(1);
                    h.write_u32(d.0);
                }
                None => h.write_u8(0),
            }
        }
        Inst::FuncAddr { dst, func } => {
            h.write_u8(6);
            h.write_u32(dst.0);
            h.write_str(&module.funcs[*func].name);
        }
        Inst::Print { arg } => {
            h.write_u8(7);
            hash_operand(h, *arg);
        }
    }
}

fn hash_terminator(h: &mut Fnv64, term: &Terminator) {
    match term {
        Terminator::Ret(op) => {
            h.write_u8(0);
            match op {
                Some(o) => {
                    h.write_u8(1);
                    hash_operand(h, *o);
                }
                None => h.write_u8(0),
            }
        }
        Terminator::Br(b) => {
            h.write_u8(1);
            h.write_u32(b.0);
        }
        Terminator::CondBr {
            cond,
            then_to,
            else_to,
        } => {
            h.write_u8(2);
            hash_operand(h, *cond);
            h.write_u32(then_to.0);
            h.write_u32(else_to.0);
        }
    }
}

/// Structural hash of one function within its module.
///
/// Covers everything downstream passes read: name, attributes, parameter
/// list, virtual-register debug names (they become frame-slot labels in
/// lowered code), stack slots, and every block's instructions and
/// terminator. Callees and globals are hashed by name — see the module
/// docs for why.
pub fn hash_function(module: &Module, fid: FuncId) -> u64 {
    let func = &module.funcs[fid];
    let mut h = Fnv64::new();
    hash_function_into(&mut h, module, func);
    h.finish()
}

/// Structural hashes of every function in the module, indexed by
/// `FuncId`. One pass here replaces the per-function re-hashing the
/// incremental cache's component keys would otherwise do.
pub fn hash_all_functions(module: &Module) -> Vec<u64> {
    module
        .funcs
        .iter()
        .map(|(fid, _)| hash_function(module, fid))
        .collect()
}

/// Absorbs the structural content of `func` into an existing hasher.
fn hash_function_into(h: &mut Fnv64, module: &Module, func: &Function) {
    h.write_str(&func.name);
    h.write_u8(func.attrs.external_visible as u8);
    h.write_usize(func.params.len());
    for p in &func.params {
        h.write_u32(p.0);
    }
    h.write_u32(func.entry.0);
    h.write_usize(func.num_vregs());
    for i in 0..func.num_vregs() {
        match func.vreg_name(crate::ids::Vreg(i as u32)) {
            Some(n) => h.write_str(n),
            None => h.write_u8(0),
        }
    }
    h.write_usize(func.slots.len());
    for (_, s) in func.slots.iter() {
        h.write_u32(s.size);
        h.write_str(&s.name);
    }
    h.write_usize(func.blocks.len());
    for (_, b) in func.blocks.iter() {
        h.write_usize(b.insts.len());
        for inst in &b.insts {
            hash_inst(h, module, inst);
        }
        hash_terminator(h, &b.term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::BinOp;

    fn demo_module() -> (Module, FuncId, FuncId) {
        let mut m = Module::new();
        let leaf = m.declare_func("leaf");
        let top = m.declare_func("top");
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
        (m, leaf, top)
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let (m, leaf, _) = demo_module();
        let h1 = hash_function(&m, leaf);
        let h2 = hash_function(&m, leaf);
        assert_eq!(h1, h2, "same input, same hash");

        // A one-constant edit changes the hash.
        let (mut m2, leaf2, _) = demo_module();
        let f = &mut m2.funcs[leaf2];
        for b in f.blocks.values_mut() {
            for i in &mut b.insts {
                if let Inst::Bin { rhs, .. } = i {
                    *rhs = Operand::Imm(2);
                }
            }
        }
        assert_ne!(h1, hash_function(&m2, leaf2));
    }

    #[test]
    fn hash_survives_entity_id_churn() {
        // The same `top` body must hash identically whether or not an
        // unrelated function was declared before it (which shifts every
        // FuncId in the module).
        let (m, _, top) = demo_module();
        let baseline = hash_function(&m, top);

        let mut m2 = Module::new();
        let extra = m2.declare_func("unrelated");
        let leaf = m2.declare_func("leaf");
        let top2 = m2.declare_func("top");
        {
            let mut b = FunctionBuilder::new("unrelated");
            b.ret(None);
            m2.define_func(extra, b.build());
        }
        {
            let mut b = FunctionBuilder::new("leaf");
            let p = b.param("p");
            let r = b.bin(BinOp::Add, p, 1);
            b.ret(Some(r.into()));
            m2.define_func(leaf, b.build());
        }
        {
            let mut b = FunctionBuilder::new("top");
            let r = b.call(leaf, vec![Operand::Imm(7)]);
            b.print(r);
            b.ret(None);
            m2.define_func(top2, b.build());
        }
        assert_eq!(
            baseline,
            hash_function(&m2, top2),
            "callee referenced by name, not by shifted id"
        );
    }

    #[test]
    fn fnv_primitives_disambiguate_field_boundaries() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes separate fields");
    }
}

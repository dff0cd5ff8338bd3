//! Allocation configuration: the compiler flags of the paper's §8.

use std::collections::HashSet;

/// How registers are allocated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocMode {
    /// No register allocation: every virtual register lives in its home
    /// slot. Baseline/oracle configuration.
    NoAlloc,
    /// Intra-procedural priority-based coloring (the paper's `-O2`).
    Intra,
    /// Inter-procedural allocation over the bottom-up call-graph order
    /// (the paper's `-O3`).
    Inter,
}

/// Register-allocation options.
#[derive(Clone, Debug)]
pub struct AllocOptions {
    /// Allocation mode.
    pub mode: AllocMode,
    /// Shrink-wrap callee-saved save/restore placement (§5). Independent of
    /// the mode, exactly as in the paper ("performed under both -O2 and
    /// -O3"). Under [`AllocMode::Inter`] this also enables the §6 rule:
    /// saves that would land at procedure entry are propagated up instead.
    pub shrink_wrap: bool,
    /// Bind outgoing arguments to the callee's chosen parameter registers
    /// (§4). Only effective under [`AllocMode::Inter`].
    pub custom_param_regs: bool,
    /// Promote global scalars to registers within procedures where no call
    /// can touch them (§1: "we do allocate them to registers within
    /// procedures in which they appear").
    pub promote_globals: bool,
    /// Split uncolorable live ranges instead of leaving them in memory
    /// (priority-based coloring's splitting step).
    pub split_ranges: bool,
    /// Function names to treat as separately compiled (their summaries are
    /// invisible and they are open), simulating incomplete program
    /// information (§3) without editing the IR.
    pub forced_open: HashSet<String>,
    /// Run the profile-guided inliner (see [`crate::inline`]) between
    /// global promotion and the call-graph phases. Off in every preset.
    pub inline: bool,
    /// Per-caller growth budget for the inliner, in instructions. Only
    /// consulted when inlining is on.
    pub inline_budget: u32,
    /// Unread: every compile runs on its calling thread. perfbench still
    /// writes it, so it stays until the benchmark change that deletes it
    /// together with those writes.
    pub jobs: usize,
    /// Directory for the incremental allocation cache (one
    /// `<key:016x>.ce.json` shard per SCC component inside it). `None`
    /// disables caching. Warm compiles are bit-identical to cold ones;
    /// the cache key covers the function body, every option in this
    /// struct (except `jobs` and `cache_dir` themselves), the target, and
    /// all callee summaries.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl AllocOptions {
    /// The paper's baseline: `-O2` with shrink-wrap disabled.
    pub fn o2_base() -> Self {
        AllocOptions {
            mode: AllocMode::Intra,
            shrink_wrap: false,
            custom_param_regs: false,
            promote_globals: true,
            split_ranges: true,
            forced_open: HashSet::new(),
            inline: false,
            inline_budget: crate::inline::DEFAULT_INLINE_BUDGET,
            jobs: 0,
            cache_dir: None,
        }
    }

    /// Table 1 configuration A: `-O2` with shrink-wrap.
    pub fn o2_shrink_wrap() -> Self {
        AllocOptions {
            shrink_wrap: true,
            ..Self::o2_base()
        }
    }

    /// Table 1 configuration B: `-O3` without shrink-wrap.
    pub fn o3_no_shrink_wrap() -> Self {
        AllocOptions {
            mode: AllocMode::Inter,
            custom_param_regs: true,
            ..Self::o2_base()
        }
    }

    /// Table 1 configuration C: `-O3` with shrink-wrap.
    pub fn o3() -> Self {
        AllocOptions {
            shrink_wrap: true,
            ..Self::o3_no_shrink_wrap()
        }
    }

    /// The no-allocation oracle configuration.
    pub fn no_alloc() -> Self {
        AllocOptions {
            mode: AllocMode::NoAlloc,
            shrink_wrap: false,
            custom_param_regs: false,
            promote_globals: false,
            split_ranges: false,
            forced_open: HashSet::new(),
            inline: false,
            inline_budget: crate::inline::DEFAULT_INLINE_BUDGET,
            jobs: 0,
            cache_dir: None,
        }
    }

    /// Marks `name` as separately compiled.
    pub fn force_open(mut self, name: impl Into<String>) -> Self {
        self.forced_open.insert(name.into());
        self
    }

    /// Turns the profile-guided inliner on or off.
    pub fn with_inline(mut self, on: bool) -> Self {
        self.inline = on;
        self
    }

    /// Sets the inliner's per-caller growth budget.
    pub fn with_inline_budget(mut self, budget: u32) -> Self {
        self.inline_budget = budget;
        self
    }

    /// Enables the incremental allocation cache rooted at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The threads one compile runs on: always 1, whatever
    /// [`AllocOptions::jobs`] says. perfbench still reports it, so it
    /// stays until the benchmark change that deletes it together with
    /// that report.
    pub fn effective_jobs(&self) -> usize {
        1
    }
}

impl Default for AllocOptions {
    fn default() -> Self {
        Self::o3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_shapes() {
        assert_eq!(AllocOptions::o2_base().mode, AllocMode::Intra);
        assert!(!AllocOptions::o2_base().shrink_wrap);
        assert!(AllocOptions::o2_shrink_wrap().shrink_wrap);
        assert_eq!(AllocOptions::o3().mode, AllocMode::Inter);
        assert!(AllocOptions::o3().custom_param_regs);
        assert!(!AllocOptions::o3_no_shrink_wrap().shrink_wrap);
        assert_eq!(AllocOptions::no_alloc().mode, AllocMode::NoAlloc);
    }

    #[test]
    fn force_open_collects_names() {
        let o = AllocOptions::o3().force_open("lib_fn").force_open("other");
        assert!(o.forced_open.contains("lib_fn"));
        assert_eq!(o.forced_open.len(), 2);
    }

    #[test]
    fn cache_dir_resolution() {
        assert_eq!(AllocOptions::o3().cache_dir, None);
        let o = AllocOptions::o3().with_cache_dir("/tmp/x");
        assert_eq!(o.cache_dir, Some(std::path::PathBuf::from("/tmp/x")));
    }

    #[test]
    fn inline_resolution() {
        assert!(!AllocOptions::o3().inline);
        assert!(AllocOptions::o3().with_inline(true).inline);
        assert_eq!(AllocOptions::o3().with_inline_budget(7).inline_budget, 7);
        assert_eq!(
            AllocOptions::o3().inline_budget,
            crate::inline::DEFAULT_INLINE_BUDGET
        );
    }
}

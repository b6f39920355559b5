//! Modules: the translation-unit analogue on which all experiments operate.

use crate::function::{Function, Linkage};
use crate::ids::{CallSiteId, FuncId, GlobalId};
use crate::inst::Inst;
use std::collections::BTreeSet;

/// A mutable global cell of type `i64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Global {
    /// Name (unique within the module).
    pub name: String,
    /// Initial value.
    pub init: i64,
}

/// A module: functions plus global cells, the unit of compilation.
///
/// Modules mint [`CallSiteId`]s: every source-level call gets a fresh id via
/// [`Module::new_call_site`], and inliner-produced copies keep the original
/// id so that one decision covers all copies (§2 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Module {
    /// Module name (used in reports).
    pub name: String,
    functions: Vec<Function>,
    globals: Vec<Global>,
    next_call_site: u32,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), functions: Vec::new(), globals: Vec::new(), next_call_site: 0 }
    }

    /// Declares a function and returns its id. The body starts as a single
    /// empty entry block terminated by `unreachable`.
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        n_params: usize,
        linkage: Linkage,
    ) -> FuncId {
        let id = FuncId::new(self.functions.len() as u32);
        self.functions.push(Function::new(name, n_params, linkage));
        id
    }

    /// Adds a global cell and returns its id.
    pub fn add_global(&mut self, name: impl Into<String>, init: i64) -> GlobalId {
        let id = GlobalId::new(self.globals.len() as u32);
        self.globals.push(Global { name: name.into(), init });
        id
    }

    /// Declares an *external* function: a body-less, non-inlinable, public
    /// symbol — the IR analogue of a C `extern` prototype. Calls to it are
    /// not inlining candidates in this module; the linker resolves it to a
    /// same-named definition from another module (see
    /// [`link_modules`](crate::link::link_modules)).
    pub fn declare_extern(&mut self, name: impl Into<String>, n_params: usize) -> FuncId {
        let id = self.declare_function(name, n_params, Linkage::Public);
        self.functions[id.index()].inlinable = false;
        id
    }

    /// Returns `true` if the function is an external declaration (public,
    /// non-inlinable, body-less).
    pub fn is_extern_decl(&self, id: FuncId) -> bool {
        let f = self.func(id);
        f.linkage == Linkage::Public && !f.inlinable && self.is_stub(id)
    }

    /// Mints a fresh call-site id.
    pub fn new_call_site(&mut self) -> CallSiteId {
        let id = CallSiteId::new(self.next_call_site);
        self.next_call_site += 1;
        id
    }

    /// Exclusive upper bound on call-site ids minted so far.
    pub fn call_site_bound(&self) -> u32 {
        self.next_call_site
    }

    /// Bumps the call-site id counter to at least `bound` (parser support).
    pub fn reserve_call_sites(&mut self, bound: u32) {
        self.next_call_site = self.next_call_site.max(bound);
    }

    /// Returns a shared reference to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Returns an exclusive reference to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Number of functions (including any that were emptied by DCE).
    pub fn func_count(&self) -> usize {
        self.functions.len()
    }

    /// Iterates over `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions.iter().enumerate().map(|(i, f)| (FuncId::new(i as u32), f))
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + 'static {
        (0..self.functions.len() as u32).map(FuncId::new)
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.iter_funcs().find(|(_, f)| f.name == name).map(|(id, _)| id)
    }

    /// Returns the module's globals.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// The set of *distinct* call-site ids currently present in the module
    /// whose callee is inlinable (body available and not opted out). These
    /// are the inlining candidates of §2.
    pub fn inlinable_sites(&self) -> BTreeSet<CallSiteId> {
        let mut out = BTreeSet::new();
        for f in &self.functions {
            for b in &f.blocks {
                for i in &b.insts {
                    if let Inst::Call { site, callee, .. } = i {
                        if self.functions[callee.index()].inlinable {
                            out.insert(*site);
                        }
                    }
                }
            }
        }
        out
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }

    /// Removes the bodies of the given functions, leaving unreachable stubs.
    ///
    /// Dead-function elimination uses this instead of reindexing, so that
    /// `FuncId`s stay stable. Stubbed functions have zero size in codegen.
    pub fn stub_out(&mut self, dead: impl IntoIterator<Item = FuncId>) {
        for id in dead {
            let f = &mut self.functions[id.index()];
            let n = f.param_count();
            *f = Function::new(f.name.clone(), n, f.linkage);
            f.inlinable = false;
        }
    }

    /// Returns `true` if the function is a stub (sole entry block, no
    /// instructions, `unreachable` terminator) left behind by [`stub_out`].
    ///
    /// [`stub_out`]: Module::stub_out
    pub fn is_stub(&self, id: FuncId) -> bool {
        let f = self.func(id);
        f.blocks.len() == 1
            && f.blocks[0].insts.is_empty()
            && matches!(f.blocks[0].term, crate::inst::Terminator::Unreachable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Terminator;

    #[test]
    fn declare_and_lookup_functions() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 0, Linkage::Public);
        let b = m.declare_function("b", 2, Linkage::Internal);
        assert_eq!(m.func_count(), 2);
        assert_eq!(m.func_by_name("b"), Some(b));
        assert_eq!(m.func_by_name("zzz"), None);
        assert_eq!(m.func(a).name, "a");
        assert_eq!(m.func(b).param_count(), 2);
    }

    #[test]
    fn call_sites_are_minted_densely() {
        let mut m = Module::new("m");
        assert_eq!(m.new_call_site(), CallSiteId::new(0));
        assert_eq!(m.new_call_site(), CallSiteId::new(1));
        assert_eq!(m.call_site_bound(), 2);
        m.reserve_call_sites(5);
        assert_eq!(m.new_call_site(), CallSiteId::new(5));
    }

    #[test]
    fn inlinable_sites_respects_callee_flag() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 0, Linkage::Public);
        let b = m.declare_function("b", 0, Linkage::Internal);
        let c = m.declare_function("c", 0, Linkage::Internal);
        m.func_mut(c).inlinable = false;
        let s0 = m.new_call_site();
        let s1 = m.new_call_site();
        let entry = m.func(a).entry();
        m.func_mut(a).blocks[entry.index()].insts.extend([
            Inst::Call { dst: None, callee: b, args: vec![], site: s0, inline_path: vec![] },
            Inst::Call { dst: None, callee: c, args: vec![], site: s1, inline_path: vec![] },
        ]);
        m.func_mut(a).blocks[entry.index()].term = Terminator::Return(None);
        let sites = m.inlinable_sites();
        assert!(sites.contains(&s0));
        assert!(!sites.contains(&s1));
    }

    #[test]
    fn stub_out_leaves_empty_function() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 1, Linkage::Internal);
        let v = m.func_mut(a).new_value();
        m.func_mut(a).blocks[0].insts.push(Inst::Const { dst: v, value: 1 });
        m.stub_out([a]);
        assert!(m.is_stub(a));
        assert_eq!(m.func(a).param_count(), 1);
        assert!(!m.func(a).inlinable);
    }

    #[test]
    fn globals_round_trip() {
        let mut m = Module::new("m");
        let g = m.add_global("counter", 42);
        assert_eq!(g, GlobalId::new(0));
        assert_eq!(m.globals()[0].init, 42);
    }
}

//! The COM export: `oskit_fault`, the fault-injection facility as a
//! component.
//!
//! Like `oskit_trace` (IID `0xC0`), the injector is wrapped in
//! [`FaultObj`], registered with the component object registry under the
//! name `"oskit_fault"`, and answers queries for [`Fault`]
//! ([`FAULT_IID`], `oskit_iid(0xC1)`) — so a kernel that was handed
//! nothing but the registry can script faults:
//!
//! ```
//! use oskit_com::{registry, Query};
//! use oskit_fault::{Fault, FaultPlan};
//!
//! oskit_fault::register_com_object();
//! let unk = registry::lookup_object("oskit_fault").unwrap();
//! let fault = unk.query::<dyn Fault>().unwrap();
//! fault.fault_install(FaultPlan::new(42));
//! let _counters = fault.fault_stats();
//! ```

use crate::injector::FaultInjector;
use crate::plan::FaultPlan;
use crate::stats::FaultSnapshot;
use oskit_com::{
    com_interface_decl, com_object, new_com, oskit_iid, registry, Guid, IUnknown, SelfRef,
};
use std::sync::{Arc, OnceLock};

/// IID of the [`Fault`] interface: `oskit_iid(0xC1)`.
pub const FAULT_IID: Guid = oskit_iid(0xC1);

/// The `oskit_fault` COM interface: install seeded fault plans and read
/// the injection/recovery ledger of a fault domain.
pub trait Fault: IUnknown {
    /// Installs (or replaces) the domain's fault plan.
    fn fault_install(&self, plan: FaultPlan);
    /// Removes the plan; all later decisions are "no fault".
    fn fault_uninstall(&self);
    /// Whether a plan is currently installed.
    fn fault_installed(&self) -> bool;
    /// Snapshots the injection/recovery counters.
    fn fault_stats(&self) -> FaultSnapshot;
    /// Resets the counters (the plan is untouched).
    fn fault_clear(&self);
}
com_interface_decl!(Fault, oskit_iid(0xC1), "oskit_fault");

/// COM object wrapping a [`FaultInjector`] handle.
pub struct FaultObj {
    me: SelfRef<FaultObj>,
    injector: FaultInjector,
}

impl FaultObj {
    /// Wraps `injector` in a COM object.
    pub fn new(injector: FaultInjector) -> Arc<FaultObj> {
        new_com(
            FaultObj {
                me: SelfRef::new(),
                injector,
            },
            |o| &o.me,
        )
    }
}

impl Fault for FaultObj {
    fn fault_install(&self, plan: FaultPlan) {
        self.injector.install(plan)
    }
    fn fault_uninstall(&self) {
        self.injector.uninstall()
    }
    fn fault_installed(&self) -> bool {
        self.injector.installed()
    }
    fn fault_stats(&self) -> FaultSnapshot {
        self.injector.stats()
    }
    fn fault_clear(&self) {
        self.injector.clear()
    }
}
com_object!(FaultObj, me, [Fault]);

/// The process-global injector, used for domains that have no machine of
/// their own.  Per-machine injection uses each machine's own injector
/// (`Machine::faults()`); this one backs the registry object.
pub fn global() -> &'static FaultInjector {
    static GLOBAL: OnceLock<FaultInjector> = OnceLock::new();
    GLOBAL.get_or_init(FaultInjector::new)
}

/// Registers the process-global injector with the COM object registry
/// under the name `"oskit_fault"` and describes the component.
/// Idempotent.
pub fn register_com_object() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let obj = FaultObj::new(global().clone());
        registry::register_object("oskit_fault", obj);
        registry::register(registry::ComponentDesc {
            name: "fault",
            library: "liboskit_fault",
            provenance: registry::Provenance::Native,
            exports: vec!["oskit_fault"],
            imports: vec![],
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::Query;

    #[test]
    fn fault_obj_is_queryable() {
        let obj = FaultObj::new(FaultInjector::new());
        assert!(obj.query::<dyn Fault>().is_some());
        let names: Vec<_> = obj.interfaces().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["oskit_fault"]);
    }

    #[test]
    fn registry_round_trip_installs_a_plan() {
        register_com_object();
        let unk = registry::lookup_object("oskit_fault").expect("registered");
        let f = unk.query::<dyn Fault>().expect("answers oskit_fault");
        f.fault_install(FaultPlan::new(7));
        assert!(f.fault_installed());
        assert!(f.fault_stats().is_zero());
        f.fault_uninstall();
        assert!(!f.fault_installed());
    }
}

//! The COM export: `oskit_trace`, the trace facility as a component.
//!
//! The OSKit way to expose a service is an interface with its own IID,
//! reachable by `query_interface` — so the tracer is wrapped in
//! [`TraceObj`], registered with the component object registry under the
//! name `"oskit_trace"`, and answers queries for [`Trace`]
//! ([`TRACE_IID`], `oskit_iid(0xC0)`).  A client that was handed nothing
//! but the registry can find the tracer without linking against this
//! crate's concrete types:
//!
//! ```
//! use oskit_com::{registry, Query};
//! use oskit_trace::Trace;
//!
//! oskit_trace::register_com_object();
//! let unk = registry::lookup_object("oskit_trace").unwrap();
//! let trace = unk.query::<dyn Trace>().unwrap();
//! let _report = trace.trace_metrics();
//! ```

use crate::event::TraceEvent;
use crate::tracer::{TraceReport, Tracer};
use oskit_com::{
    com_interface_decl, com_object, new_com, oskit_iid, registry, Guid, IUnknown, SelfRef,
};
use std::sync::{Arc, OnceLock};

/// IID of the [`Trace`] interface: `oskit_iid(0xC0)`.
pub const TRACE_IID: Guid = oskit_iid(0xC0);

/// The `oskit_trace` COM interface: read-side access to a tracing
/// domain's metrics and event stream.
pub trait Trace: IUnknown {
    /// Snapshots per-boundary metrics for the wrapped tracer.
    fn trace_metrics(&self) -> TraceReport;
    /// Drains buffered structured events, oldest first.
    fn trace_drain_events(&self) -> Vec<TraceEvent>;
    /// Events the flight recorder overwrote to make room for newer ones.
    fn trace_dropped(&self) -> u64;
    /// Resets counters and discards buffered events.
    fn trace_clear(&self);
}
com_interface_decl!(Trace, oskit_iid(0xC0), "oskit_trace");

/// COM object wrapping a [`Tracer`] handle.
pub struct TraceObj {
    me: SelfRef<TraceObj>,
    tracer: Tracer,
}

impl TraceObj {
    /// Wraps `tracer` in a COM object.
    pub fn new(tracer: Tracer) -> Arc<TraceObj> {
        new_com(
            TraceObj {
                me: SelfRef::new(),
                tracer,
            },
            |o| &o.me,
        )
    }
}

impl Trace for TraceObj {
    fn trace_metrics(&self) -> TraceReport {
        self.tracer.metrics()
    }
    fn trace_drain_events(&self) -> Vec<TraceEvent> {
        self.tracer.drain_events()
    }
    fn trace_dropped(&self) -> u64 {
        self.tracer.overwritten()
    }
    fn trace_clear(&self) {
        self.tracer.clear()
    }
}
com_object!(TraceObj, me, [Trace]);

/// The process-global tracer, used for domains that have no machine of
/// their own: COM interface dispatch and the object registry.
///
/// Per-machine observation uses each machine's own tracer; this one
/// aggregates cross-cutting counts.
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// Registers the process-global tracer with the COM object registry
/// under the name `"oskit_trace"` and describes the component.
/// Idempotent.
pub fn register_com_object() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let obj = TraceObj::new(global().clone());
        registry::register_object("oskit_trace", obj);
        registry::register(registry::ComponentDesc {
            name: "trace",
            library: "liboskit_trace",
            provenance: registry::Provenance::Native,
            exports: vec!["oskit_trace"],
            imports: vec![],
        });
    });
}

/// Starts counting COM interface queries against the process-global
/// tracer, attributed to the `("com", <interface name>)` boundary.
///
/// Idempotent; later calls (and later hook installers) are ignored.
pub fn instrument_com_dispatch() {
    let _ = oskit_com::dispatch::set_query_hook(|iface| {
        let b = crate::boundary::register_boundary("com", iface);
        global().count(b, crate::event::EventKind::Crossing);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::Query;

    #[test]
    fn trace_obj_is_queryable() {
        let obj = TraceObj::new(Tracer::new());
        assert!(obj.query::<dyn Trace>().is_some());
        let names: Vec<_> = obj.interfaces().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["oskit_trace"]);
    }

    #[test]
    fn registry_round_trip() {
        register_com_object();
        let unk = registry::lookup_object("oskit_trace").expect("registered");
        let t = unk.query::<dyn Trace>().expect("answers oskit_trace");
        // The global tracer is shared: metrics are visible through COM.
        let b = crate::boundary!("testcomp", "com_round_trip");
        global().count(b, crate::event::EventKind::Crossing);
        assert!(
            t.trace_metrics()
                .get("testcomp", "com_round_trip")
                .unwrap()
                .crossings
                >= 1
        );
    }

    #[test]
    fn dispatch_hook_counts_queries() {
        instrument_com_dispatch();
        register_com_object();
        let unk = registry::lookup_object("oskit_trace").unwrap();
        let before = global()
            .metrics()
            .get("com", "oskit_trace")
            .map(|b| b.crossings)
            .unwrap_or(0);
        let _ = unk.query::<dyn Trace>().unwrap();
        let after = global()
            .metrics()
            .get("com", "oskit_trace")
            .map(|b| b.crossings)
            .unwrap_or(0);
        assert!(after > before, "query dispatch was not counted");
    }
}

//! The component registry, used to regenerate the paper's Figure 1.
//!
//! Each OSKit library registers a description of itself — which interfaces
//! it exports, which it consumes, and whether its bulk is native OSKit code
//! or encapsulated donor-OS code — so a client (or the `fig1` harness) can
//! print the overall structure of an assembled system.  It holds
//! descriptions only: a client reaches a component's objects through
//! the component's own constructor, not by name.

use std::sync::Mutex;

/// Provenance of a component's implementation (paper Figure 1 legend:
/// "native OSKit code" vs "encapsulated legacy code").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Written for the OSKit itself.
    Native,
    /// Donor-OS code wrapped in glue (paper §4.7).
    Encapsulated {
        /// The donor system, e.g. "Linux 2.0.29" or "FreeBSD 2.1.5".
        donor: &'static str,
    },
}

/// A registered component description.
#[derive(Clone, Debug)]
pub struct ComponentDesc {
    /// Component name, e.g. "freebsd_net".
    pub name: &'static str,
    /// Library (crate) providing it.
    pub library: &'static str,
    /// Where the implementation came from.
    pub provenance: Provenance,
    /// Interfaces the component exports.
    pub exports: Vec<&'static str>,
    /// Interfaces/services the component consumes from its environment.
    pub imports: Vec<&'static str>,
}

static REGISTRY: Mutex<Vec<ComponentDesc>> = Mutex::new(Vec::new());

/// Registers a component (idempotent per name: re-registration replaces).
pub fn register(desc: ComponentDesc) {
    let mut reg = REGISTRY.lock().expect("poisoned");
    if let Some(existing) = reg.iter_mut().find(|d| d.name == desc.name) {
        *existing = desc;
    } else {
        reg.push(desc);
    }
}

/// Returns a snapshot of every registered component.
pub fn components() -> Vec<ComponentDesc> {
    REGISTRY.lock().expect("poisoned").clone()
}

/// Renders the registered components as an ASCII structure diagram in the
/// spirit of paper Figure 1.
pub fn render_structure() -> String {
    use std::fmt::Write as _;
    let comps = components();
    let mut out = String::new();
    let _ = writeln!(out, "Client Operating System or Language Run-Time System");
    let _ = writeln!(out, "====================================================");
    for c in &comps {
        let tag = match c.provenance {
            Provenance::Native => "native".to_string(),
            Provenance::Encapsulated { donor } => format!("encapsulated: {donor}"),
        };
        let _ = writeln!(out, "[{}] ({}) — {}", c.name, c.library, tag);
        if !c.exports.is_empty() {
            let _ = writeln!(out, "    exports: {}", c.exports.join(", "));
        }
        if !c.imports.is_empty() {
            let _ = writeln!(out, "    imports: {}", c.imports.join(", "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_render() {
        register(ComponentDesc {
            name: "test_comp",
            library: "liboskit_test",
            provenance: Provenance::Encapsulated {
                donor: "TestOS 1.0",
            },
            exports: vec!["oskit_blkio"],
            imports: vec!["osenv_mem"],
        });
        let s = render_structure();
        assert!(s.contains("test_comp"));
        assert!(s.contains("encapsulated: TestOS 1.0"));
        assert!(s.contains("exports: oskit_blkio"));
    }

    #[test]
    fn reregistration_replaces() {
        register(ComponentDesc {
            name: "dup",
            library: "a",
            provenance: Provenance::Native,
            exports: vec![],
            imports: vec![],
        });
        register(ComponentDesc {
            name: "dup",
            library: "b",
            provenance: Provenance::Native,
            exports: vec![],
            imports: vec![],
        });
        let n = components().iter().filter(|c| c.name == "dup").count();
        assert_eq!(n, 1);
        assert_eq!(
            components()
                .iter()
                .find(|c| c.name == "dup")
                .unwrap()
                .library,
            "b"
        );
    }
}

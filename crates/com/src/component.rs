//! Component descriptors, used to regenerate the paper's Figure 1.
//!
//! Each OSKit library declares a `const` description of each component it
//! provides: the object types that make it up, the environment services it
//! consumes, and the donor OS whose code it encapsulates.  The exports are
//! not a second list of names: they are the `INTERFACES` consts of those
//! object types, the lists `query_any` answers from.  A descriptor is plain
//! data; nothing is registered anywhere, and a client reaches a
//! component's objects through the component's own constructor.

use crate::Guid;

/// One object type's interface list: its `INTERFACES` const.
pub type InterfaceList = &'static [(&'static str, Guid)];

/// A component description (an encapsulated one: Figure 1 shades those).
#[derive(Clone, Copy, Debug)]
pub struct ComponentDesc {
    /// Component name, e.g. "freebsd_net".
    pub name: &'static str,
    /// Library (crate) providing it.
    pub library: &'static str,
    /// The donor system whose code the component wraps in glue (paper
    /// §4.7), e.g. "Linux 2.0.29".
    pub donor: &'static str,
    /// The interface lists of the object types the component hands out.
    pub exports: &'static [InterfaceList],
    /// Interfaces/services the component consumes from its environment.
    pub imports: &'static [&'static str],
}

impl ComponentDesc {
    /// The exported interfaces: every object type's list flattened in
    /// order, each interface once.
    pub fn exported(&self) -> Vec<(&'static str, Guid)> {
        let mut out: Vec<(&'static str, Guid)> = Vec::new();
        for &(name, iid) in self.exports.iter().copied().flatten() {
            if !out.iter().any(|&(_, seen)| seen == iid) {
                out.push((name, iid));
            }
        }
        out
    }
}

/// Renders components as an ASCII structure diagram in the spirit of
/// paper Figure 1.
pub fn render_structure(components: &[ComponentDesc]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Client Operating System or Language Run-Time System");
    let _ = writeln!(out, "====================================================");
    for c in components {
        let _ = writeln!(
            out,
            "[{}] ({}) — encapsulated: {}",
            c.name, c.library, c.donor
        );
        let exports: Vec<&str> = c.exported().iter().map(|&(name, _)| name).collect();
        if !exports.is_empty() {
            let _ = writeln!(out, "    exports: {}", exports.join(", "));
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
    use crate::oskit_iid;

    #[test]
    fn render_flattens_exports_in_order_without_duplicates() {
        const A: InterfaceList = &[
            ("oskit_blkio", oskit_iid(0x81)),
            ("oskit_bufio", oskit_iid(0x82)),
        ];
        const B: InterfaceList = &[
            ("oskit_bufio", oskit_iid(0x82)),
            ("oskit_netio", oskit_iid(0x83)),
        ];
        let s = render_structure(&[ComponentDesc {
            name: "test_comp",
            library: "liboskit_test",
            donor: "TestOS 1.0",
            exports: &[A, B],
            imports: &["osenv_mem"],
        }]);
        assert!(s.contains("[test_comp] (liboskit_test) — encapsulated: TestOS 1.0"));
        assert!(s.contains("exports: oskit_blkio, oskit_bufio, oskit_netio\n"));
        assert!(s.contains("imports: osenv_mem\n"));
    }
}

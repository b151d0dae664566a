//! `EXPLAIN ANALYZE`-style plan-tree reports.
//!
//! The tree itself is built by `kfusion-core` (which knows plan graphs,
//! fusion groups, and register-pressure analysis); this module owns the
//! generic node shape and the renderer so that any layer — or a test — can
//! produce one without depending on the planner. Each node carries the
//! measurements the paper's figures turn on: observed rows, *simulated*
//! time on the virtual GPU, *host* wall-clock of the functional evaluation,
//! the fusion group the node was placed in, `max_live_regs` of the code
//! it contributed, and from the host: what a loop that ran a group's
//! members as one covered, and whether the node's view was gathered for a
//! reader.

/// One annotated plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Node label, e.g. `select#2`.
    pub label: String,
    /// Rows this node produced.
    pub rows: u64,
    /// Simulated seconds attributed to this node (kernel + its transfers).
    pub sim_seconds: f64,
    /// Host wall-clock seconds of the node's functional evaluation.
    pub host_seconds: f64,
    /// Fusion group index, when the fuser placed this node in a group.
    pub fusion_group: Option<usize>,
    /// Liveness-precise register pressure of the node's (or its group's)
    /// kernel body; 0 for nodes that emit no kernel.
    pub max_live_regs: u32,
    /// What a fused group's loop did here, if one ran the node.
    pub covered: Option<Covered>,
    /// Whether the host gathered this node's view into stored rows before
    /// a reader ran (its `host=` time includes the gather; `gathered`).
    pub gathered: bool,
    /// Input plan nodes.
    pub children: Vec<ExplainNode>,
}

/// A node's part in a loop the host ran a chain of one fusion group's
/// members as: one kernel, evaluated and timed by its head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Covered {
    /// The head of a loop that covered this many members, itself
    /// included: its `host=` time is the whole loop's (`loop(k)`).
    Loop(usize),
    /// A member the loop of another node ran: its time is in that head's
    /// (`passed`).
    Passed,
}

impl ExplainNode {
    /// A leaf node with the given annotations.
    pub fn new(label: impl Into<String>) -> Self {
        ExplainNode {
            label: label.into(),
            rows: 0,
            sim_seconds: 0.0,
            host_seconds: 0.0,
            fusion_group: None,
            max_live_regs: 0,
            covered: None,
            gathered: false,
            children: Vec::new(),
        }
    }

    /// Total node count of the subtree, root included.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(ExplainNode::count).sum::<usize>()
    }

    fn annotations(&self) -> String {
        let group = match self.fusion_group {
            Some(g) => format!("group=g{g}"),
            None => "group=-".to_string(),
        };
        let covered = match self.covered {
            Some(Covered::Loop(k)) => format!("  loop({k})"),
            Some(Covered::Passed) => "  passed".to_string(),
            None => String::new(),
        };
        let gathered = if self.gathered { "  gathered" } else { "" };
        format!(
            "rows={}  sim={:.6} ms  host={:.3} ms  {group}  live_regs={}{covered}{gathered}",
            self.rows,
            self.sim_seconds * 1e3,
            self.host_seconds * 1e3,
            self.max_live_regs
        )
    }

    fn render_into(&self, out: &mut String, prefix: &str, is_last: bool, is_root: bool) {
        if is_root {
            out.push_str(&format!("{}  {}\n", self.label, self.annotations()));
        } else {
            let branch = if is_last { "└─ " } else { "├─ " };
            out.push_str(&format!("{prefix}{branch}{}  {}\n", self.label, self.annotations()));
        }
        let child_prefix = if is_root {
            String::new()
        } else {
            format!("{prefix}{}", if is_last { "   " } else { "│  " })
        };
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == self.children.len(), false);
        }
    }

    /// Render this subtree as an `EXPLAIN ANALYZE` report.
    pub fn render(&self) -> String {
        let mut out = String::from("EXPLAIN ANALYZE\n");
        self.render_into(&mut out, "", true, true);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(label: &str, rows: u64, group: Option<usize>) -> ExplainNode {
        ExplainNode { rows, fusion_group: group, ..ExplainNode::new(label) }
    }

    #[test]
    fn renders_tree_with_annotations() {
        let mut root = node("aggregate#4", 4, Some(1));
        root.sim_seconds = 0.0025;
        let mut sel = node("select#2", 100, Some(0));
        sel.max_live_regs = 3;
        sel.covered = Some(Covered::Loop(2));
        sel.children.push(node("scan#0", 1000, None));
        root.children.push(sel);
        let mut scan = node("scan#1", 1000, None);
        scan.gathered = true;
        root.children.push(scan);
        let r = root.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "EXPLAIN ANALYZE");
        assert!(lines[1].starts_with("aggregate#4  rows=4  sim=2.500000 ms"));
        assert!(lines[1].contains("group=g1"));
        assert!(lines[2].starts_with("├─ select#2"));
        assert!(lines[2].ends_with("live_regs=3  loop(2)"), "{}", lines[2]);
        assert!(lines[3].starts_with("│  └─ scan#0"));
        assert!(lines[3].contains("group=-"));
        assert!(lines[3].ends_with("live_regs=0"), "{}", lines[3]);
        assert!(lines[4].starts_with("└─ scan#1"));
        assert!(lines[4].ends_with("live_regs=0  gathered"), "{}", lines[4]);
        assert_eq!(root.count(), 4);
    }
}

//! Task definitions: the Rust equivalent of `#pragma oss task`.

use crate::DataRegion;
use std::borrow::Cow;
use std::fmt;

/// Opaque task identifier, unique within one [`crate::TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

impl TaskId {
    /// Raw id value (stable within a graph; useful for trace output).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// How a task uses a data region — the `in`/`out`/`inout` of the pragma.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read-only (`in`): concurrent with other readers.
    In,
    /// Write-only (`out`): orders against readers and writers.
    Out,
    /// Read-write (`inout`): orders against readers and writers.
    InOut,
}

impl AccessMode {
    /// Whether the access writes the region.
    pub fn writes(&self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }

    /// Whether the access reads the region (drives data transfers in the
    /// cluster runtime: only read data must be present before execution).
    pub fn reads(&self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }
}

/// One declared access of a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The region touched.
    pub region: DataRegion,
    /// How it is touched.
    pub mode: AccessMode,
}

impl Access {
    /// Whether two accesses conflict (overlap with at least one writer) —
    /// the condition that creates a dependency edge.
    pub fn conflicts_with(&self, other: &Access) -> bool {
        (self.mode.writes() || other.mode.writes()) && self.region.overlaps(&other.region)
    }
}

/// Lifecycle of a task inside the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Submitted, predecessors outstanding.
    Blocked,
    /// All predecessors complete; eligible for scheduling.
    Ready,
    /// Claimed by an executor.
    Running,
    /// Finished; successors released.
    Completed,
}

/// Definition of a task prior to submission — the pragma annotation.
/// [`crate::TaskGraph::submit`] reads only its accesses.
#[derive(Clone, Debug)]
pub struct TaskDef {
    /// Human-readable label (kernel name); not read by the graph. A
    /// `&'static str` label is borrowed, so a task named by a literal
    /// allocates nothing for it.
    pub label: Cow<'static, str>,
    /// Declared data accesses.
    pub accesses: Vec<Access>,
    /// Cost hint in abstract single-core work units; not read by the
    /// graph (the simulator takes durations from its task specs).
    pub cost: f64,
}

impl TaskDef {
    /// A task with no accesses and unit cost.
    pub fn new(label: impl Into<Cow<'static, str>>) -> Self {
        TaskDef {
            label: label.into(),
            accesses: Vec::new(),
            cost: 1.0,
        }
    }

    /// Declare an `in` access.
    pub fn reads(mut self, region: DataRegion) -> Self {
        self.accesses.push(Access {
            region,
            mode: AccessMode::In,
        });
        self
    }

    /// Declare an `out` access.
    pub fn writes(mut self, region: DataRegion) -> Self {
        self.accesses.push(Access {
            region,
            mode: AccessMode::Out,
        });
        self
    }

    /// Declare an `inout` access.
    pub fn reads_writes(mut self, region: DataRegion) -> Self {
        self.accesses.push(Access {
            region,
            mode: AccessMode::InOut,
        });
        self
    }

    /// Set the cost hint (abstract single-core work units; not read by
    /// the graph).
    pub fn cost(mut self, cost: f64) -> Self {
        self.cost = cost;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(AccessMode::Out.writes() && !AccessMode::Out.reads());
        assert!(AccessMode::In.reads() && !AccessMode::In.writes());
        assert!(AccessMode::InOut.reads() && AccessMode::InOut.writes());
    }

    #[test]
    fn conflicts_require_a_writer() {
        let r = DataRegion::new(0, 8);
        let read = Access {
            region: r,
            mode: AccessMode::In,
        };
        let write = Access {
            region: r,
            mode: AccessMode::Out,
        };
        assert!(!read.conflicts_with(&read)); // two readers commute
        assert!(read.conflicts_with(&write)); // WAR
        assert!(write.conflicts_with(&read)); // RAW
        assert!(write.conflicts_with(&write)); // WAW
    }

    #[test]
    fn conflicts_require_overlap() {
        let w1 = Access {
            region: DataRegion::new(0, 8),
            mode: AccessMode::Out,
        };
        let w2 = Access {
            region: DataRegion::new(8, 8),
            mode: AccessMode::Out,
        };
        assert!(!w1.conflicts_with(&w2));
    }

    #[test]
    fn builder_accumulates_accesses_in_order() {
        let t = TaskDef::new("kernel")
            .reads(DataRegion::new(0, 100))
            .writes(DataRegion::new(200, 50))
            .reads_writes(DataRegion::new(300, 25))
            .cost(2.5);
        let modes: Vec<AccessMode> = t.accesses.iter().map(|a| a.mode).collect();
        assert_eq!(modes, [AccessMode::In, AccessMode::Out, AccessMode::InOut]);
        assert_eq!(t.accesses[2].region, DataRegion::new(300, 25));
        assert_eq!(t.cost, 2.5);
    }
}

//! Error type for the simulator.

use std::fmt;

/// Errors reported by [`Engine::run`](crate::Engine::run).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The task graph contains a dependency cycle: after the event queue
    /// drained, the named tasks had still not run.
    Deadlock {
        /// Labels of the tasks that never became ready.
        stuck: Vec<String>,
    },
    /// Simulated time left the `u64` nanosecond range (about 584
    /// years): a finish instant, or a resource's busy or queue-wait
    /// total, overflowed while the named task was being scheduled.
    Overflow {
        /// Label of the task whose arithmetic overflowed.
        task: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { stuck } => {
                write!(
                    f,
                    "task graph deadlocked: {} task(s) never became ready (cycle?): {}",
                    stuck.len(),
                    stuck.join(", ")
                )
            }
            SimError::Overflow { task } => {
                write!(f, "simulated time overflows u64 nanoseconds at task {task}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_stuck_tasks() {
        let err = SimError::Deadlock {
            stuck: vec!["a".into(), "b".into()],
        };
        let msg = err.to_string();
        assert!(msg.contains("2 task(s)"));
        assert!(msg.contains("a, b"));
        let err = SimError::Overflow {
            task: "it1/h2d".into(),
        };
        assert!(err.to_string().ends_with("at task it1/h2d"));
    }
}

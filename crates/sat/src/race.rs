//! Generic first-decided-wins racing of closures on scoped threads.
//!
//! [`race`] spawns every member on its own scoped thread with an inherited
//! [`Budget`] carrying a shared [`CancelToken`], returns the first *decided*
//! result, raises the token so the losers stop from their hot loops, and
//! polls the caller's own budget (deadline or an outer cancel token) while
//! waiting.  Its one caller is `velv_core::backend::race_backends`, which
//! races verification *verdicts* of SAT presets and a BDD build.
//!
//! The helper is generic over the member's result type `T` precisely so the
//! BDD member does not have to be squeezed behind the [`crate::Solver`]
//! trait (which would forfeit its counterexample); each member is just a
//! closure from `(index, Budget)` to `T`, plus a predicate telling the
//! collector which results decide the race.

use crate::solver::{Budget, CancelToken, StopReason};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long the collector waits on the result channel before re-checking the
/// caller's own budget (deadline or an outer cancel token).
const PARENT_POLL: Duration = Duration::from_millis(5);

/// How one member fared in a [`race`].
#[derive(Clone, Debug)]
pub struct RaceRun<T> {
    /// The value the member returned (losers typically report a cancelled
    /// result).
    pub value: T,
    /// Wall-clock time from the member's start to its return.
    pub time: Duration,
    /// Whether this member decided the race first.
    pub winner: bool,
}

/// Aggregated outcome of one [`race`].
#[derive(Clone, Debug)]
pub struct RaceOutcome<T> {
    /// Index of the member that decided first, if any did.
    pub winner: Option<usize>,
    /// Per-member outcomes, indexed like the member list (`None` only if a
    /// member thread vanished without reporting, which scoped threads make
    /// impossible short of a panic).
    pub runs: Vec<Option<RaceRun<T>>>,
    /// Why the caller's own budget stopped the race, if it did.
    pub parent_stop: Option<StopReason>,
    /// Wall-clock time of the whole race.
    pub wall_time: Duration,
}

impl<T> RaceOutcome<T> {
    /// The run of the winning member.
    pub fn winner_run(&self) -> Option<&RaceRun<T>> {
        self.winner.and_then(|i| self.runs[i].as_ref())
    }
}

/// Races `names.len()` members; the first whose result satisfies `decided`
/// wins and the shared cancel token is raised for the rest.
///
/// Each member runs on its own scoped thread (named after its entry in
/// `names`, with `stack_size` bytes of stack) and receives a budget that
/// inherits the caller's step limits and resolved deadline and carries the
/// race's cancel token — `run(index, budget)` must poll it from its hot loop.
/// The caller's own budget is honoured while collecting: if its deadline
/// passes or an outer cancel token is raised, the race token is raised and
/// the members' (cancelled) results are still collected, so the returned
/// outcome is always complete.
pub fn race<T, F, D>(
    names: &[String],
    budget: Budget,
    stack_size: usize,
    run: F,
    decided: D,
) -> RaceOutcome<T>
where
    T: Send,
    F: Fn(usize, Budget) -> T + Sync,
    D: Fn(&T) -> bool,
{
    let race_start = Instant::now();
    let parent = budget.started();
    let token = CancelToken::new();
    // Members inherit the caller's step limits and resolved deadline but poll
    // the race's own token; the collector below forwards an outer
    // cancellation into that token.
    let member_budget = Budget {
        max_conflicts: parent.max_conflicts,
        max_decisions: parent.max_decisions,
        max_time: None,
        deadline: parent.deadline,
        cancel: Some(token.clone()),
    };

    let n = names.len();
    let mut runs: Vec<Option<RaceRun<T>>> = (0..n).map(|_| None).collect();
    let mut winner: Option<usize> = None;
    let mut parent_stop: Option<StopReason> = None;

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let run = &run;
        for (index, name) in names.iter().enumerate() {
            let tx = tx.clone();
            let member_budget = member_budget.clone();
            std::thread::Builder::new()
                .name(name.clone())
                .stack_size(stack_size)
                .spawn_scoped(scope, move || {
                    let start = Instant::now();
                    let value = run(index, member_budget);
                    // The receiver hangs up only after all members report or
                    // were cancelled; a send error just means the race is over.
                    let _ = tx.send((index, value, start.elapsed()));
                })
                .expect("spawning a race member thread succeeds");
        }
        drop(tx);

        let mut received = 0;
        while received < n {
            match rx.recv_timeout(PARENT_POLL) {
                Ok((index, value, time)) => {
                    received += 1;
                    if winner.is_none() && decided(&value) {
                        winner = Some(index);
                        token.cancel();
                    }
                    runs[index] = Some(RaceRun {
                        value,
                        time,
                        winner: false,
                    });
                }
                Err(RecvTimeoutError::Timeout) => {
                    if parent_stop.is_none() {
                        if let Some(reason) = parent.exceeded() {
                            parent_stop = Some(reason);
                            token.cancel();
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    });

    if let Some(index) = winner {
        if let Some(run) = runs[index].as_mut() {
            run.winner = true;
        }
    }
    RaceOutcome {
        winner,
        runs,
        parent_stop,
        wall_time: race_start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::StopReason;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("race-test-{i}")).collect()
    }

    /// Spins until the budget says stop, then reports `None`.
    fn spin(budget: &Budget) -> Option<u32> {
        let budget = budget.clone().started();
        loop {
            for _ in 0..256 {
                std::hint::spin_loop();
            }
            if budget.exceeded().is_some() {
                return None;
            }
        }
    }

    #[test]
    fn first_decided_wins_and_losers_are_cancelled() {
        let outcome = race(
            &names(3),
            Budget::unlimited(),
            1 << 16,
            |index, budget| {
                if index == 1 {
                    Some(42u32)
                } else {
                    spin(&budget)
                }
            },
            |v| v.is_some(),
        );
        assert_eq!(outcome.winner, Some(1));
        assert_eq!(outcome.winner_run().unwrap().value, Some(42));
        assert!(outcome.runs.iter().all(|r| r.is_some()));
        assert_eq!(outcome.runs[0].as_ref().unwrap().value, None);
        assert!(outcome.parent_stop.is_none());
    }

    #[test]
    fn undecided_race_collects_everyone() {
        let outcome = race(
            &names(2),
            Budget::time_limit(Duration::from_millis(20)),
            1 << 16,
            |_, budget| spin(&budget),
            |v| v.is_some(),
        );
        assert_eq!(outcome.winner, None);
        assert!(outcome.winner_run().is_none());
        assert!(outcome.runs.iter().all(|r| r.is_some()));
    }

    #[test]
    fn outer_cancellation_is_forwarded() {
        let token = CancelToken::new();
        token.cancel();
        let outcome = race(
            &names(2),
            Budget::unlimited().with_cancel(token),
            1 << 16,
            |_, budget| spin(&budget),
            |v| v.is_some(),
        );
        assert_eq!(outcome.winner, None);
        assert_eq!(outcome.parent_stop, Some(StopReason::Cancelled));
        assert!(outcome.wall_time < Duration::from_secs(5));
    }

    #[test]
    fn empty_race_returns_immediately() {
        let outcome = race(
            &[],
            Budget::unlimited(),
            1 << 16,
            |_, _| unreachable!("no members"),
            |_: &()| true,
        );
        assert_eq!(outcome.winner, None);
        assert!(outcome.runs.is_empty());
    }
}

//! Rounds over a fixed set of jobs, keeping each job's fastest repetition.
//!
//! On a shared host the CPU's speed drifts by tens of percent over seconds
//! to minutes as other tenants come and go, and a run that times distinct
//! jobs once each reports whatever state the host was in. Instead a run
//! plays the same jobs round after round until its time is up, and keeps,
//! per job, the repetition whose timed phase was shortest. Repetitions of
//! a job do identical work (same inputs, same single thread, same outputs,
//! which is checked), so the fastest one is the least disturbed, and
//! rounds spread each job's repetitions over the whole run. The job set is
//! fixed per seed, so every run weighs the same mix of jobs.

use std::time::{Duration, Instant};

use crate::check::{ensure, Violation};

/// One measured repetition of a job.
pub trait Job {
    /// Wall time of the timed phase, s.
    fn timed_s(&self) -> f64;
    /// Set-up time, s.
    fn setup_s(&self) -> f64;
    /// Timed alloc attempts, and timed calls that returned an error.
    fn counts(&self) -> (u64, u64);
    /// `true` when `other`, a repetition of the same job, produced the
    /// same exact outputs.
    fn same_outputs(&self, other: &Self) -> bool;
}

/// What a run of rounds keeps.
#[derive(Debug)]
pub struct Rounds<E> {
    /// Per job, the repetition with the shortest timed phase.
    pub best: Vec<E>,
    /// Per job, its shortest set-up, s.
    pub setup_s: Vec<f64>,
    /// Repetitions played, over all jobs.
    pub reps: u64,
    /// Timed alloc attempts over all repetitions.
    pub attempted: u64,
    /// Failed timed calls over all repetitions.
    pub failed: u64,
}

/// Plays jobs `0..jobs` (through `episode`) round after round until
/// `budget` has passed, completing at least the first round.
///
/// # Errors
///
/// The first violation `episode` reports, or a repetition whose exact
/// outputs differ from the job's first.
pub fn run<E: Job>(
    jobs: u64,
    budget: Duration,
    episode: impl FnMut(u64) -> Result<E, Violation>,
) -> Result<Rounds<E>, Violation> {
    let start = Instant::now();
    run_while(jobs, || start.elapsed() < budget, episode)
}

/// [`run`], going on past the first round while `more` says so.
fn run_while<E: Job>(
    jobs: u64,
    mut more: impl FnMut() -> bool,
    mut episode: impl FnMut(u64) -> Result<E, Violation>,
) -> Result<Rounds<E>, Violation> {
    assert!(jobs > 0, "a run needs at least one job");
    let mut r = Rounds {
        best: Vec::new(),
        setup_s: Vec::new(),
        reps: 0,
        attempted: 0,
        failed: 0,
    };
    while r.reps < jobs || more() {
        let job = r.reps % jobs;
        let ep = episode(job)?;
        r.reps += 1;
        let (attempts, failed) = ep.counts();
        r.attempted += attempts;
        r.failed += failed;
        let j = job as usize;
        if j == r.best.len() {
            r.setup_s.push(ep.setup_s());
            r.best.push(ep);
            continue;
        }
        ensure(r.best[j].same_outputs(&ep), || {
            format!("job {job}: a repetition's exact outputs differ from the first")
        })?;
        r.setup_s[j] = r.setup_s[j].min(ep.setup_s());
        if ep.timed_s() < r.best[j].timed_s() {
            r.best[j] = ep;
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Fake {
        job: u64,
        timed_s: f64,
        setup_s: f64,
        output: u64,
    }

    impl Job for Fake {
        fn timed_s(&self) -> f64 {
            self.timed_s
        }
        fn setup_s(&self) -> f64 {
            self.setup_s
        }
        fn counts(&self) -> (u64, u64) {
            (10, 1)
        }
        fn same_outputs(&self, other: &Self) -> bool {
            self.output == other.output
        }
    }

    /// `reps` repetitions over `jobs` jobs; repetition `rep` of job `job`
    /// comes from `f(job, rep)`.
    fn play(jobs: u64, reps: u64, f: impl Fn(u64, u64) -> Fake) -> Result<Rounds<Fake>, Violation> {
        let played = Cell::new(0);
        run_while(
            jobs,
            || played.get() < reps,
            |job| {
                let rep = played.get() / jobs;
                played.set(played.get() + 1);
                Ok(f(job, rep))
            },
        )
    }

    #[test]
    fn keeps_each_jobs_fastest_repetition_and_shortest_setup() {
        // Timings vary by repetition; outputs depend on the job only.
        let fake = |job, rep| Fake {
            job,
            timed_s: [3.0, 1.0, 2.0][rep as usize] + job as f64,
            setup_s: [0.5, 0.7, 0.2][((rep + job) % 3) as usize],
            output: job * 7,
        };
        let r = play(2, 6, fake).unwrap();
        assert_eq!(r.reps, 6);
        assert_eq!(
            r.best
                .iter()
                .map(|e| (e.job, e.timed_s))
                .collect::<Vec<_>>(),
            [(0, 1.0), (1, 2.0)]
        );
        assert_eq!(r.setup_s, [0.2, 0.2]);
        assert_eq!((r.attempted, r.failed), (60, 6));
        // With nothing more wanted, the first round still completes.
        let r = play(3, 0, |job, _| fake(job, 0)).unwrap();
        assert_eq!((r.reps, r.best.len()), (3, 3));
    }

    #[test]
    fn a_repetition_with_other_outputs_is_a_violation() {
        let err = play(2, 4, |job, rep| Fake {
            job,
            timed_s: 1.0,
            setup_s: 1.0,
            output: job + u64::from(job == 1 && rep == 1),
        })
        .unwrap_err();
        assert!(err.0.contains("job 1"), "{err}");
    }
}

//! The defragmentation scheduler: pluggable policies deciding *when* a pool
//! should run its [`compact`](gmlake_alloc_api::AllocatorCore::compact) or
//! [`release_cached`](gmlake_alloc_api::AllocatorCore::release_cached) hook.
//!
//! The design mirrors the step-driven defrag managers of production training
//! stacks (e.g. torchtitan's `MemoryDefragManager`): instead of waiting for
//! an out-of-memory failure to trigger the allocator's reactive fallback,
//! the runtime observes each pool at iteration boundaries (and, optionally,
//! from a background sweep thread) and fires a defrag pass proactively.
//!
//! Two policies ship:
//!
//! * [`PeriodicPolicy`] — every N training iterations, unconditionally;
//! * [`FragThresholdPolicy`] — when instantaneous fragmentation crosses a
//!   threshold (with a reserved-bytes floor so empty pools are left alone).
//!
//! Custom policies implement [`DefragPolicy`]. Policies are proactive
//! only: an out-of-memory failure is handled by the allocation path's own
//! reclaim steps (see `docs/fault-model.md`), never by a policy.

use std::collections::HashMap;

use parking_lot::Mutex;

use gmlake_alloc_api::{DeviceAllocator, MemStats};

use crate::service::DeviceId;

/// What a policy asks the runtime to do to a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefragAction {
    /// Leave the pool alone.
    None,
    /// Run the allocator's proactive defrag/GC pass
    /// ([`AllocatorCore::compact`](gmlake_alloc_api::AllocatorCore::compact)).
    Compact,
    /// Surrender every cached structure
    /// ([`AllocatorCore::release_cached`](gmlake_alloc_api::AllocatorCore::release_cached)), like
    /// `torch.cuda.empty_cache()`.
    ReleaseCached,
}

/// A point-in-time view of one pool, handed to policies.
#[derive(Debug, Clone, Copy)]
pub struct PoolObservation {
    /// Which device the pool manages.
    pub device: DeviceId,
    /// Process-unique id of the pool's *registration*. Re-registering a
    /// device yields a new epoch, so per-pool policy state keyed on
    /// `(device, pool_epoch)` cannot leak from a dead pool to its
    /// successor — and a stale observation of the old pool cannot be
    /// mistaken for the new one.
    pub pool_epoch: u64,
    /// Training iterations completed through this pool's handles.
    pub iteration: u64,
    /// The pool's memory counters.
    pub stats: MemStats,
    /// Instantaneous fragmentation ratio (`1 − active/reserved`), as
    /// reported by [`AllocatorCore::fragmentation`](gmlake_alloc_api::AllocatorCore::fragmentation).
    pub fragmentation: f64,
}

/// Decides when pools defragment. Implementations may keep per-device state
/// (they are called under the scheduler's policy lock).
pub trait DefragPolicy: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Called once per completed training iteration of each pool, and by
    /// background sweeps. Must be idempotent per `(device, iteration)`:
    /// sweeps may observe the same iteration repeatedly.
    fn on_iteration(&mut self, obs: &PoolObservation) -> DefragAction;
}

/// Fires [`DefragAction::Compact`] every `every` iterations of each device.
#[derive(Debug)]
pub struct PeriodicPolicy {
    every: u64,
    action: DefragAction,
    /// Per device: the pool epoch the mark belongs to, and the iteration
    /// the policy last fired at.
    last_fired: HashMap<DeviceId, (u64, u64)>,
}

impl PeriodicPolicy {
    /// Compacts each pool every `every` iterations (`every` ≥ 1).
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "period must be at least one iteration");
        PeriodicPolicy {
            every,
            action: DefragAction::Compact,
            last_fired: HashMap::new(),
        }
    }

    /// Replaces the fired action (e.g. [`DefragAction::ReleaseCached`] for
    /// a full `empty_cache`-style trim).
    #[must_use]
    pub fn with_action(mut self, action: DefragAction) -> Self {
        self.action = action;
        self
    }
}

impl DefragPolicy for PeriodicPolicy {
    fn name(&self) -> &'static str {
        "periodic"
    }

    fn on_iteration(&mut self, obs: &PoolObservation) -> DefragAction {
        if obs.iteration == 0 {
            return DefragAction::None;
        }
        // A mark from a different pool epoch belongs to a dead pool that
        // was registered under the same DeviceId: start the new pool's
        // cadence from zero. (Keying on the epoch — rather than inferring
        // re-registration from a backwards iteration — keeps concurrent
        // stale observations of the *same* pool harmless: they see
        // `iteration < last + every` and decline.)
        let last = match self.last_fired.get(&obs.device) {
            Some(&(epoch, iteration)) if epoch == obs.pool_epoch => iteration,
            _ => 0,
        };
        if obs.iteration >= last + self.every {
            self.last_fired
                .insert(obs.device, (obs.pool_epoch, obs.iteration));
            self.action
        } else {
            DefragAction::None
        }
    }
}

/// Fires [`DefragAction::Compact`] when a pool's instantaneous
/// fragmentation exceeds a threshold (and the pool is big enough to be
/// worth the trouble).
#[derive(Debug, Clone)]
pub struct FragThresholdPolicy {
    max_frag: f64,
    min_reserved: u64,
}

impl FragThresholdPolicy {
    /// Compacts pools whose fragmentation exceeds `max_frag` (a ratio in
    /// `[0, 1]`) while holding at least `min_reserved` bytes.
    pub fn new(max_frag: f64, min_reserved: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&max_frag),
            "fragmentation threshold must be a ratio"
        );
        FragThresholdPolicy {
            max_frag,
            min_reserved,
        }
    }
}

impl DefragPolicy for FragThresholdPolicy {
    fn name(&self) -> &'static str {
        "frag-threshold"
    }

    fn on_iteration(&mut self, obs: &PoolObservation) -> DefragAction {
        if obs.fragmentation > self.max_frag && obs.stats.reserved_bytes >= self.min_reserved {
            DefragAction::Compact
        } else {
            DefragAction::None
        }
    }
}

/// Cumulative counters of scheduler activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragStats {
    /// Policy evaluations (iteration boundaries + sweeps).
    pub evaluations: u64,
    /// `Compact` actions applied.
    pub compactions: u64,
    /// `ReleaseCached` actions applied.
    pub releases: u64,
    /// Physical bytes reclaimed by applied actions.
    pub bytes_reclaimed: u64,
}

/// Evaluates a [`DefragPolicy`] over pools and records what it did.
///
/// One scheduler is shared by every handle of a
/// [`PoolService`](crate::PoolService); its internal locks are held only
/// while *deciding*, never while *acting* on an allocator, so policy
/// evaluation cannot deadlock against pool mutexes.
pub struct DefragScheduler {
    policy: Mutex<Box<dyn DefragPolicy>>,
    name: &'static str,
    stats: Mutex<DefragStats>,
}

impl std::fmt::Debug for DefragScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefragScheduler")
            .field("policy", &self.name)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DefragScheduler {
    /// Wraps a policy.
    pub fn new(policy: impl DefragPolicy + 'static) -> Self {
        let name = policy.name();
        DefragScheduler {
            policy: Mutex::new(Box::new(policy)),
            name,
            stats: Mutex::new(DefragStats::default()),
        }
    }

    /// Shorthand for [`PeriodicPolicy`].
    pub fn periodic(every: u64) -> Self {
        DefragScheduler::new(PeriodicPolicy::new(every))
    }

    /// Shorthand for [`FragThresholdPolicy`].
    pub fn frag_threshold(max_frag: f64, min_reserved: u64) -> Self {
        DefragScheduler::new(FragThresholdPolicy::new(max_frag, min_reserved))
    }

    /// The wrapped policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.name
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> DefragStats {
        *self.stats.lock()
    }

    /// Asks the policy what to do after an iteration (or during a sweep).
    pub(crate) fn decide_iteration(&self, obs: &PoolObservation) -> DefragAction {
        self.stats.lock().evaluations += 1;
        self.policy.lock().on_iteration(obs)
    }

    /// Records an applied action and the bytes it reclaimed.
    pub(crate) fn record(&self, action: DefragAction, bytes: u64) {
        let mut stats = self.stats.lock();
        match action {
            DefragAction::None => {}
            DefragAction::Compact => stats.compactions += 1,
            DefragAction::ReleaseCached => stats.releases += 1,
        }
        stats.bytes_reclaimed += bytes;
    }
}

/// Applies an action to a pool's allocator front-end, returning the bytes
/// reclaimed. Both actions flush the front-end's shard caches first, so a
/// defrag pass always sees every cached byte.
pub(crate) fn apply_action(action: DefragAction, alloc: &DeviceAllocator) -> u64 {
    match action {
        DefragAction::None => 0,
        DefragAction::Compact => alloc.compact(),
        DefragAction::ReleaseCached => alloc.release_cached(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_epoch(
        device: u32,
        pool_epoch: u64,
        iteration: u64,
        active: u64,
        reserved: u64,
    ) -> PoolObservation {
        let mut stats = MemStats::default();
        stats.on_alloc(active, active);
        stats.set_reserved(reserved);
        PoolObservation {
            device: DeviceId(device),
            pool_epoch,
            iteration,
            stats,
            fragmentation: if reserved == 0 {
                0.0
            } else {
                1.0 - active as f64 / reserved as f64
            },
        }
    }

    fn obs(device: u32, iteration: u64, active: u64, reserved: u64) -> PoolObservation {
        obs_epoch(device, 1, iteration, active, reserved)
    }

    #[test]
    fn periodic_fires_on_cadence_per_device() {
        let mut p = PeriodicPolicy::new(3);
        assert_eq!(p.on_iteration(&obs(0, 0, 0, 0)), DefragAction::None);
        assert_eq!(p.on_iteration(&obs(0, 1, 0, 0)), DefragAction::None);
        assert_eq!(p.on_iteration(&obs(0, 2, 0, 0)), DefragAction::None);
        assert_eq!(p.on_iteration(&obs(0, 3, 0, 0)), DefragAction::Compact);
        // Idempotent per iteration: a sweep re-observing iteration 3 must
        // not fire again.
        assert_eq!(p.on_iteration(&obs(0, 3, 0, 0)), DefragAction::None);
        assert_eq!(p.on_iteration(&obs(0, 5, 0, 0)), DefragAction::None);
        assert_eq!(p.on_iteration(&obs(0, 6, 0, 0)), DefragAction::Compact);
        // Devices have independent cadences.
        assert_eq!(p.on_iteration(&obs(1, 2, 0, 0)), DefragAction::None);
        assert_eq!(p.on_iteration(&obs(1, 3, 0, 0)), DefragAction::Compact);
    }

    #[test]
    fn periodic_action_is_configurable() {
        let mut p = PeriodicPolicy::new(1).with_action(DefragAction::ReleaseCached);
        assert_eq!(
            p.on_iteration(&obs(0, 1, 0, 0)),
            DefragAction::ReleaseCached
        );
    }

    #[test]
    #[should_panic(expected = "period")]
    fn periodic_rejects_zero_period() {
        let _ = PeriodicPolicy::new(0);
    }

    #[test]
    fn periodic_restarts_cadence_for_a_reregistered_device() {
        let mut p = PeriodicPolicy::new(3);
        assert_eq!(
            p.on_iteration(&obs_epoch(0, 1, 3, 0, 0)),
            DefragAction::Compact
        );
        // The device was re-registered with a fresh pool (new epoch): its
        // iteration counter restarted, and the stale mark from the dead
        // pool must not suppress the new cadence.
        assert_eq!(
            p.on_iteration(&obs_epoch(0, 2, 1, 0, 0)),
            DefragAction::None
        );
        assert_eq!(
            p.on_iteration(&obs_epoch(0, 2, 3, 0, 0)),
            DefragAction::Compact
        );
    }

    #[test]
    fn periodic_ignores_stale_observation_of_the_same_pool() {
        // A background sweep may capture an observation just before a
        // boundary thread advances the counter and fires. The stale,
        // lower-iteration observation of the SAME pool must be a no-op —
        // not be mistaken for a re-registration (which would clear the
        // mark and double-fire).
        let mut p = PeriodicPolicy::new(100);
        assert_eq!(
            p.on_iteration(&obs_epoch(0, 1, 100, 0, 0)),
            DefragAction::Compact
        );
        assert_eq!(
            p.on_iteration(&obs_epoch(0, 1, 99, 0, 0)),
            DefragAction::None
        );
        assert_eq!(
            p.on_iteration(&obs_epoch(0, 1, 101, 0, 0)),
            DefragAction::None,
            "cadence unbroken: next fire is at 200"
        );
        assert_eq!(
            p.on_iteration(&obs_epoch(0, 1, 200, 0, 0)),
            DefragAction::Compact
        );
    }

    #[test]
    fn threshold_fires_only_above_threshold_and_floor() {
        let mut p = FragThresholdPolicy::new(0.3, 1000);
        // 50% fragmented and big enough: fire.
        assert_eq!(p.on_iteration(&obs(0, 1, 500, 1000)), DefragAction::Compact);
        // 10% fragmented: leave alone.
        assert_eq!(p.on_iteration(&obs(0, 2, 900, 1000)), DefragAction::None);
        // 50% fragmented but tiny: leave alone.
        assert_eq!(p.on_iteration(&obs(0, 3, 400, 800)), DefragAction::None);
        // Empty pool: leave alone.
        assert_eq!(p.on_iteration(&obs(0, 4, 0, 0)), DefragAction::None);
    }

    #[test]
    fn scheduler_counts_decisions_and_actions() {
        let s = DefragScheduler::periodic(2);
        assert_eq!(s.policy_name(), "periodic");
        assert_eq!(s.decide_iteration(&obs(0, 1, 0, 0)), DefragAction::None);
        assert_eq!(s.decide_iteration(&obs(0, 2, 0, 0)), DefragAction::Compact);
        s.record(DefragAction::Compact, 4096);
        s.record(DefragAction::ReleaseCached, 1024);
        s.record(DefragAction::None, 0);
        let st = s.stats();
        assert_eq!(st.evaluations, 2);
        assert_eq!(st.compactions, 1);
        assert_eq!(st.releases, 1);
        assert_eq!(st.bytes_reclaimed, 5120);
    }
}

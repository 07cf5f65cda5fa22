//! Snapshot lifecycle: freeze the live twin, fork what-ifs from it.
//!
//! A [`TwinSnapshot`] is a full, immutable copy of the simulation state
//! at the second it was taken — RAPS queues and allocations, the event
//! calendar, accumulated outputs, and the cooling backend's internal
//! state (thermal volumes, PID integrators, staging hysteresis for the
//! L4 plant). Taking one costs a state clone, O(running + pending
//! jobs + plant state), *not* O(elapsed time); forking one hands back an
//! independent [`DigitalTwin`] that advances exactly as the original
//! would have (`DigitalTwin::fork` determinism contract).
//!
//! Each snapshot also carries an RNG stream base derived from the
//! service seed and snapshot id, so stochastic queries (UQ draws) are
//! reproducible per snapshot: fork *i* of a query always draws from
//! `Rng::new(snapshot.seed ^ fingerprint).split(i)` regardless of pool
//! width or arrival order.

use crate::persist::{
    read_json, read_manifest, snapshot_path, write_json, write_manifest, ManifestEntry,
    ManifestHeader, PersistError, MANIFEST_FORMAT_VERSION,
};
use exadigit_core::twin::DigitalTwin;
use exadigit_obs::{Counter, Histogram, LATENCY_BUCKETS_S};
use exadigit_sim::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A frozen copy of the live twin at one simulated second.
pub struct TwinSnapshot {
    /// Snapshot id (unique per service, ascending).
    pub id: u64,
    /// Caller-supplied label, e.g. `"noon"`.
    pub label: String,
    /// Simulated second (clock-elapsed) the snapshot was taken at.
    pub taken_at_s: u64,
    /// RNG stream base for stochastic queries branched from this
    /// snapshot: `service_seed` split by snapshot id.
    pub seed: u64,
    twin: DigitalTwin,
}

impl TwinSnapshot {
    /// Fork an independent twin from the frozen state. Advancing the
    /// fork is bit-identical to advancing the original from the snapshot
    /// second (the crate's determinism contract).
    pub fn fork(&self) -> Result<DigitalTwin, String> {
        self.twin.fork()
    }

    /// Read-only access to the frozen twin (reports, outputs).
    pub fn twin(&self) -> &DigitalTwin {
        &self.twin
    }

    /// The wire-facing summary of this snapshot.
    pub fn info(&self) -> SnapshotInfo {
        let (running, pending) = self.twin.queue_state();
        SnapshotInfo {
            id: self.id,
            label: self.label.clone(),
            taken_at_s: self.taken_at_s,
            running_jobs: running as u64,
            pending_jobs: pending as u64,
        }
    }
}

/// The store's registry handles: disk-tier timing histograms plus the
/// spill counter. Defaults to detached (unregistered) instruments so a
/// standalone store still measures; the service swaps in
/// registry-backed handles via [`SnapshotStore::set_metrics`].
#[derive(Clone)]
pub(crate) struct StoreMetrics {
    /// Time to serialize + write one snapshot to the disk tier.
    pub persist_seconds: Histogram,
    /// Time to load one spilled snapshot back from disk.
    pub rehydrate_seconds: Histogram,
    /// Resident snapshots evicted to the disk tier by the memory cap.
    pub spills: Counter,
}

impl Default for StoreMetrics {
    fn default() -> Self {
        StoreMetrics {
            persist_seconds: Histogram::new(&LATENCY_BUCKETS_S),
            rehydrate_seconds: Histogram::new(&LATENCY_BUCKETS_S),
            spills: Counter::new(),
        }
    }
}

/// Memory accounting over a [`SnapshotStore`], split the way the
/// `Status` probe reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMemoryStats {
    /// Snapshots resident in memory.
    pub resident: usize,
    /// Snapshots held only on the disk tier.
    pub spilled: usize,
    /// Approximate recorded-history bytes resident snapshots share with
    /// other twins (the live twin, forks, sibling snapshots) by
    /// refcount.
    pub shared_bytes: usize,
    /// Approximate recorded-history bytes uniquely owned by resident
    /// snapshots — what dropping them would free.
    pub owned_bytes: usize,
}

/// Wire-facing snapshot summary (the `Snapshot` / `ListSnapshots`
/// response payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Snapshot id queries branch from.
    pub id: u64,
    /// Caller-supplied label.
    pub label: String,
    /// Simulated second the snapshot was taken at.
    pub taken_at_s: u64,
    /// Jobs running at the snapshot second.
    pub running_jobs: u64,
    /// Jobs queued at the snapshot second.
    pub pending_jobs: u64,
}

/// On-disk form of one snapshot file (`snap-<id>.json`): identity plus
/// the twin's versioned state blob (`DigitalTwin::save_state`).
#[derive(Serialize, Deserialize)]
struct PersistedSnapshot {
    id: u64,
    label: String,
    taken_at_s: u64,
    seed: u64,
    twin: serde::Value,
}

/// The service's snapshot registry: id-keyed, capacity-bounded in
/// memory, optionally backed by a disk tier.
///
/// With a persist directory configured ([`SnapshotStore::with_persist_dir`]
/// or [`SnapshotStore::recover`]), every adopted snapshot is also written
/// to disk (length-prefixed JSON, atomic tmp + rename — see
/// [`PersistError`] for the typed failure modes), snapshots evicted by
/// the in-memory capacity
/// **spill** to that tier instead of vanishing, and [`SnapshotStore::get`]
/// transparently rehydrates a spilled id. Ids ascend monotonically and
/// `next_id` survives restarts via the manifest, so an id is never
/// reused — which is what keeps `(snapshot id, fingerprint)` query-cache
/// keys collision-free across recoveries.
pub struct SnapshotStore {
    snapshots: BTreeMap<u64, Arc<TwinSnapshot>>,
    /// Manifest entries for every snapshot on disk (resident or spilled).
    persisted: BTreeMap<u64, ManifestEntry>,
    next_id: u64,
    max_snapshots: usize,
    seed: u64,
    persist_dir: Option<PathBuf>,
    /// Per-line damage reports from a recovered manifest.
    warnings: Vec<String>,
    /// Disk-tier instruments (timings + spill count). Not state: absent
    /// from the manifest, reset on recovery.
    metrics: StoreMetrics,
}

impl SnapshotStore {
    /// Empty in-memory store holding at most `max_snapshots` snapshots,
    /// deriving per-snapshot RNG bases from `seed`.
    pub fn new(max_snapshots: usize, seed: u64) -> Self {
        SnapshotStore {
            snapshots: BTreeMap::new(),
            persisted: BTreeMap::new(),
            next_id: 1,
            max_snapshots: max_snapshots.max(1),
            seed,
            persist_dir: None,
            warnings: Vec::new(),
            metrics: StoreMetrics::default(),
        }
    }

    /// Attach registry-backed instruments, replacing the detached
    /// defaults.
    pub(crate) fn set_metrics(&mut self, metrics: StoreMetrics) {
        self.metrics = metrics;
    }

    /// Enable the disk tier on an empty store: every subsequent adopt is
    /// persisted under `dir`, capacity evictions spill instead of
    /// erroring, and the manifest is kept current. Creates `dir` (and a
    /// fresh manifest) if needed; refuses a non-empty store — enable
    /// persistence before taking snapshots — and refuses a directory
    /// that already holds a manifest (use [`SnapshotStore::recover`]).
    pub fn with_persist_dir(mut self, dir: impl Into<PathBuf>) -> Result<Self, String> {
        if !self.snapshots.is_empty() {
            return Err("persistence must be enabled before snapshots are taken".to_string());
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create persist dir {}: {e}", dir.display()))?;
        if crate::persist::manifest_path(&dir).exists() {
            return Err(format!(
                "{} already holds a manifest; use SnapshotStore::recover to load it",
                dir.display()
            ));
        }
        self.persist_dir = Some(dir);
        self.write_manifest().map_err(|e| e.to_string())?;
        Ok(self)
    }

    /// Reopen the store persisted under `dir`: the manifest's identity
    /// (`next_id`, seed, capacity) is restored and every listed snapshot
    /// starts **spilled** — it is rehydrated from its file on first
    /// [`SnapshotStore::get`], so recovery itself is O(manifest), not
    /// O(total snapshot bytes). Corrupt manifest entry lines are
    /// reported via [`SnapshotStore::recovery_warnings`], never silently
    /// skipped; a corrupt header fails the whole recovery (typed).
    pub fn recover(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        let manifest = read_manifest(&dir)?;
        Ok(SnapshotStore {
            snapshots: BTreeMap::new(),
            persisted: manifest.entries.into_iter().map(|e| (e.id, e)).collect(),
            next_id: manifest.header.next_id,
            max_snapshots: manifest.header.max_snapshots.max(1),
            seed: manifest.header.seed,
            persist_dir: Some(dir),
            warnings: manifest.damaged,
            metrics: StoreMetrics::default(),
        })
    }

    /// Damage reports collected while recovering the manifest (empty for
    /// a clean recovery or a store that was never recovered).
    pub fn recovery_warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The persist directory, when the disk tier is enabled.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    /// Freeze `live` into a new snapshot. Without a disk tier this fails
    /// when the store is full (drop one first — eviction must be an
    /// explicit client decision, because a snapshot may be the base of
    /// in-flight queries); with one, the oldest resident snapshot spills
    /// to disk instead. Also fails when the twin's cooling backend
    /// cannot capture its state.
    pub fn take(&mut self, live: &DigitalTwin, label: String) -> Result<Arc<TwinSnapshot>, String> {
        self.adopt(live.fork()?, label)
    }

    /// Register an already-frozen twin as a new snapshot. Lets the
    /// caller clone under its own lock and register outside it (the
    /// service never holds the live-twin and store locks together).
    /// Same capacity rule as [`SnapshotStore::take`].
    pub fn adopt(&mut self, twin: DigitalTwin, label: String) -> Result<Arc<TwinSnapshot>, String> {
        if self.persist_dir.is_none() && self.snapshots.len() >= self.max_snapshots {
            return Err(format!(
                "snapshot store is full ({} of {}); drop one first",
                self.snapshots.len(),
                self.max_snapshots
            ));
        }
        let id = self.next_id;
        let snapshot = Arc::new(TwinSnapshot {
            id,
            label,
            taken_at_s: twin.now(),
            seed: {
                let mut base = Rng::new(self.seed).split(id);
                base.next_u64()
            },
            twin,
        });
        if self.persist_dir.is_some() {
            // Persist before registering: an adopt either lands in both
            // tiers or errors without changing the store.
            self.persist_snapshot(&snapshot).map_err(|e| e.to_string())?;
        }
        self.next_id += 1;
        self.snapshots.insert(id, Arc::clone(&snapshot));
        self.enforce_capacity(id);
        if self.persist_dir.is_some() {
            self.write_manifest().map_err(|e| e.to_string())?;
        }
        Ok(snapshot)
    }

    /// Spill oldest resident snapshots until the in-memory tier is back
    /// within capacity, keeping `keep_id` resident. Only meaningful with
    /// a disk tier (the spilled copies are already on disk).
    fn enforce_capacity(&mut self, keep_id: u64) {
        if self.persist_dir.is_none() {
            return;
        }
        while self.snapshots.len() > self.max_snapshots {
            let oldest = self
                .snapshots
                .keys()
                .copied()
                .find(|&id| id != keep_id)
                .expect("over-capacity store has a second entry");
            self.snapshots.remove(&oldest);
            self.metrics.spills.inc();
        }
    }

    /// Write one snapshot's file and record its manifest entry.
    fn persist_snapshot(&mut self, snapshot: &TwinSnapshot) -> Result<(), PersistError> {
        // Disk-path timing: a few ns of Instant overhead against ms of
        // serde + I/O, so no enabled gate here.
        let started = std::time::Instant::now();
        let dir = self.persist_dir.clone().expect("disk tier enabled");
        let path = snapshot_path(&dir, snapshot.id);
        let twin_state = snapshot.twin.save_state().map_err(|detail| PersistError::Corrupt {
            path: path.clone(),
            detail,
        })?;
        let bytes = write_json(
            &path,
            &PersistedSnapshot {
                id: snapshot.id,
                label: snapshot.label.clone(),
                taken_at_s: snapshot.taken_at_s,
                seed: snapshot.seed,
                twin: twin_state,
            },
        )?;
        let (running, pending) = snapshot.twin.queue_state();
        self.persisted.insert(
            snapshot.id,
            ManifestEntry {
                id: snapshot.id,
                label: snapshot.label.clone(),
                taken_at_s: snapshot.taken_at_s,
                bytes,
                running_jobs: running as u64,
                pending_jobs: pending as u64,
            },
        );
        self.metrics.persist_seconds.observe_duration(started.elapsed());
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), PersistError> {
        let dir = self.persist_dir.as_deref().expect("disk tier enabled");
        let header = ManifestHeader {
            manifest_format_version: MANIFEST_FORMAT_VERSION,
            next_id: self.next_id,
            seed: self.seed,
            max_snapshots: self.max_snapshots,
        };
        let entries: Vec<ManifestEntry> = self.persisted.values().cloned().collect();
        write_manifest(dir, &header, &entries)
    }

    /// Look up a snapshot by id (an `Arc` clone, so queries keep the
    /// frozen state alive even across a concurrent drop). A spilled
    /// snapshot is transparently rehydrated from disk — same id, same
    /// seed, same frozen state, so outcomes cached against the id remain
    /// valid. `Ok(None)` means the id does not exist; a disk-tier
    /// failure (torn file, corrupt payload, format-version mismatch)
    /// surfaces as a typed [`PersistError`] for that snapshot only.
    pub fn get(&mut self, id: u64) -> Result<Option<Arc<TwinSnapshot>>, PersistError> {
        if let Some(snapshot) = self.snapshots.get(&id) {
            return Ok(Some(Arc::clone(snapshot)));
        }
        if !self.persisted.contains_key(&id) {
            return Ok(None);
        }
        let snapshot = self.rehydrate(id)?;
        self.snapshots.insert(id, Arc::clone(&snapshot));
        self.enforce_capacity(id);
        Ok(Some(snapshot))
    }

    /// Load a spilled snapshot's file back into a live [`TwinSnapshot`].
    fn rehydrate(&self, id: u64) -> Result<Arc<TwinSnapshot>, PersistError> {
        let started = std::time::Instant::now();
        let dir = self.persist_dir.as_deref().expect("spilled entries imply a disk tier");
        let path = snapshot_path(dir, id);
        let persisted: PersistedSnapshot = read_json(&path)?;
        if persisted.id != id {
            return Err(PersistError::Corrupt {
                path,
                detail: format!("file claims snapshot id {}, expected {id}", persisted.id),
            });
        }
        let twin = DigitalTwin::from_state(&persisted.twin)
            .map_err(|detail| PersistError::Corrupt { path, detail })?;
        self.metrics.rehydrate_seconds.observe_duration(started.elapsed());
        Ok(Arc::new(TwinSnapshot {
            id: persisted.id,
            label: persisted.label,
            taken_at_s: persisted.taken_at_s,
            seed: persisted.seed,
            twin,
        }))
    }

    /// Drop a snapshot from every tier: the resident copy (in-flight
    /// queries holding the `Arc` finish unaffected), the disk file, and
    /// the manifest entry. The id stops resolving — and because ids are
    /// never reused, queries cached against it can never be served to a
    /// different snapshot.
    pub fn drop_snapshot(&mut self, id: u64) -> bool {
        let resident = self.snapshots.remove(&id).is_some();
        let persisted = self.persisted.remove(&id).is_some();
        if persisted {
            if let Some(dir) = self.persist_dir.as_deref() {
                let _ = std::fs::remove_file(snapshot_path(dir, id));
            }
            let _ = self.write_manifest();
        }
        resident || persisted
    }

    /// Force snapshot `id`'s current state to disk (the `Persist`
    /// protocol query). With the disk tier every adopt already persists,
    /// so this is a re-write — useful after an off-path mutation or to
    /// heal a damaged file. Fails without a disk tier or for an unknown
    /// (or spilled-and-unreadable) id.
    pub fn persist(&mut self, id: u64) -> Result<u64, String> {
        if self.persist_dir.is_none() {
            return Err("no persist directory configured".to_string());
        }
        let snapshot = self
            .get(id)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("unknown snapshot id {id}"))?;
        self.persist_snapshot(&snapshot).map_err(|e| e.to_string())?;
        self.write_manifest().map_err(|e| e.to_string())?;
        Ok(self.persisted[&id].bytes)
    }

    /// Summaries of every held snapshot (resident and spilled),
    /// ascending id. Spilled entries are summarised from the manifest —
    /// listing never forces a rehydrate.
    pub fn list(&self) -> Vec<SnapshotInfo> {
        let mut out: Vec<SnapshotInfo> = Vec::with_capacity(self.len());
        let mut ids: Vec<u64> =
            self.snapshots.keys().chain(self.persisted.keys()).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            if let Some(s) = self.snapshots.get(&id) {
                out.push(s.info());
            } else if let Some(e) = self.persisted.get(&id) {
                out.push(SnapshotInfo {
                    id: e.id,
                    label: e.label.clone(),
                    taken_at_s: e.taken_at_s,
                    running_jobs: e.running_jobs,
                    pending_jobs: e.pending_jobs,
                });
            }
        }
        out
    }

    /// Memory accounting across the store's tiers (the `Status` probe's
    /// capacity view). Shared/owned bytes are summed over **resident**
    /// snapshots only — spilled snapshots hold no memory, that is the
    /// point of spilling — using the copy-on-write accounting in
    /// `SimOutputs::shared_owned_bytes`: chunks a snapshot still shares
    /// with the live twin (or with sibling snapshots) read as shared,
    /// so `owned_bytes` is what dropping snapshots would actually free.
    pub fn memory_stats(&self) -> StoreMemoryStats {
        let mut shared_bytes = 0;
        let mut owned_bytes = 0;
        for snapshot in self.snapshots.values() {
            let (s, o) = snapshot.twin().outputs().shared_owned_bytes();
            shared_bytes += s;
            owned_bytes += o;
        }
        StoreMemoryStats {
            resident: self.snapshots.len(),
            spilled: self.persisted.keys().filter(|id| !self.snapshots.contains_key(id)).count(),
            shared_bytes,
            owned_bytes,
        }
    }

    /// Number of held snapshots across both tiers.
    pub fn len(&self) -> usize {
        let spilled = self.persisted.keys().filter(|id| !self.snapshots.contains_key(id)).count();
        self.snapshots.len() + spilled
    }

    /// Number of snapshots resident in memory.
    pub fn resident(&self) -> usize {
        self.snapshots.len()
    }

    /// True when no snapshot is held in any tier.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The service seed snapshot RNG bases derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_core::config::TwinConfig;

    fn live_twin() -> DigitalTwin {
        let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        twin.submit(vec![exadigit_raps::job::Job::new(1, "j", 128, 600, 5, 0.6, 0.6)]);
        twin.run(60).unwrap();
        twin
    }

    #[test]
    fn take_fork_drop_lifecycle() {
        let mut store = SnapshotStore::new(4, 7);
        let live = live_twin();
        let snap = store.take(&live, "t60".into()).unwrap();
        assert_eq!(snap.id, 1);
        assert_eq!(snap.taken_at_s, 60);
        assert_eq!(snap.info().running_jobs, 1);
        let mut fork = snap.fork().unwrap();
        fork.run(600).unwrap();
        assert_eq!(fork.report().jobs_completed, 1);
        // The frozen state is unaffected by the fork's progress.
        assert_eq!(snap.twin().now(), 60);
        assert!(store.drop_snapshot(1));
        assert!(!store.drop_snapshot(1));
        assert!(store.get(1).unwrap().is_none());
    }

    #[test]
    fn store_capacity_is_enforced() {
        let mut store = SnapshotStore::new(2, 0);
        let live = live_twin();
        store.take(&live, "a".into()).unwrap();
        store.take(&live, "b".into()).unwrap();
        let err = match store.take(&live, "c".into()) {
            Err(e) => e,
            Ok(_) => panic!("store must refuse a third snapshot"),
        };
        assert!(err.contains("full"), "{err}");
        store.drop_snapshot(1);
        // Ids keep ascending after a drop.
        assert_eq!(store.take(&live, "c".into()).unwrap().id, 3);
        assert_eq!(store.list().iter().map(|s| s.id).collect::<Vec<_>>(), vec![2, 3]);
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("exadigit-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn capacity_evictions_spill_to_disk_and_rehydrate() {
        let dir = scratch_dir("spill");
        let mut store =
            SnapshotStore::new(2, 7).with_persist_dir(&dir).expect("fresh dir accepts the tier");
        let metrics = StoreMetrics::default();
        store.set_metrics(metrics.clone());
        let live = live_twin();
        store.take(&live, "a".into()).unwrap();
        store.take(&live, "b".into()).unwrap();
        // With a disk tier the third take spills the oldest instead of
        // erroring.
        store.take(&live, "c".into()).unwrap();
        assert_eq!(store.len(), 3, "nothing vanished");
        assert_eq!(store.resident(), 2, "capacity still bounds memory");
        assert_eq!(
            store.list().iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "listings merge both tiers without rehydrating"
        );
        // The spilled snapshot comes back bit-identical in behaviour:
        // same id, seed, and frozen second, and its fork advances.
        let back = store.get(1).unwrap().expect("spilled id must resolve");
        assert_eq!(back.id, 1);
        assert_eq!(back.label, "a");
        assert_eq!(back.taken_at_s, 60);
        let mut fork = back.fork().unwrap();
        fork.run(600).unwrap();
        assert_eq!(fork.report().jobs_completed, 1);
        // The instruments saw every disk-tier transition: three
        // persists, two capacity spills (the third take spilled id 1;
        // rehydrating id 1 spilled id 2), one rehydrate.
        assert_eq!(metrics.persist_seconds.count(), 3);
        assert_eq!(metrics.spills.get(), 2);
        assert_eq!(metrics.rehydrate_seconds.count(), 1);
        assert!(metrics.persist_seconds.sum() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_restores_identity_and_lazily_rehydrates() {
        let dir = scratch_dir("recover");
        {
            let mut store = SnapshotStore::new(4, 42).with_persist_dir(&dir).unwrap();
            let live = live_twin();
            store.take(&live, "a".into()).unwrap();
            store.take(&live, "b".into()).unwrap();
            store.drop_snapshot(1);
        } // store dropped — "process death"
        let mut back = SnapshotStore::recover(&dir).unwrap();
        assert!(back.recovery_warnings().is_empty());
        assert_eq!(back.seed(), 42);
        assert_eq!(back.len(), 1);
        assert_eq!(back.resident(), 0, "recovery is O(manifest): nothing rehydrated yet");
        assert!(back.get(1).unwrap().is_none(), "dropped ids stay dropped");
        let snap = back.get(2).unwrap().expect("persisted id survives the restart");
        assert_eq!(snap.label, "b");
        // next_id survived: new snapshots never reuse a pre-restart id.
        assert_eq!(back.take(&live_twin(), "c".into()).unwrap().id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_file_is_a_typed_per_snapshot_error() {
        let dir = scratch_dir("torn");
        {
            let mut store = SnapshotStore::new(4, 7).with_persist_dir(&dir).unwrap();
            store.take(&live_twin(), "a".into()).unwrap();
        }
        // Tear the snapshot file: drop the tail so the payload is shorter
        // than its length prefix declares.
        let path = snapshot_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut back = SnapshotStore::recover(&dir).unwrap();
        match back.get(1) {
            Err(PersistError::Truncated { .. }) => {}
            Err(e) => panic!("torn file must surface as Truncated, got {e}"),
            Ok(_) => panic!("torn file must not resolve"),
        }
        // The store itself stays usable: the damage is per snapshot.
        assert_eq!(back.take(&live_twin(), "fresh".into()).unwrap().id, 2);
        assert!(back.get(2).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_dir_with_existing_manifest_is_refused() {
        let dir = scratch_dir("refuse");
        {
            let _store = SnapshotStore::new(4, 7).with_persist_dir(&dir).unwrap();
        }
        let err = SnapshotStore::new(4, 7).with_persist_dir(&dir).err().unwrap();
        assert!(err.contains("recover"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_seeds_differ_but_are_reproducible() {
        let mut s1 = SnapshotStore::new(8, 42);
        let mut s2 = SnapshotStore::new(8, 42);
        let live = live_twin();
        let a1 = s1.take(&live, "a".into()).unwrap();
        let b1 = s1.take(&live, "b".into()).unwrap();
        let a2 = s2.take(&live, "a".into()).unwrap();
        assert_eq!(a1.seed, a2.seed, "same service seed + id ⇒ same stream base");
        assert_ne!(a1.seed, b1.seed, "snapshots get distinct stream bases");
    }
}

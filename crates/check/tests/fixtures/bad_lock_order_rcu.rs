// Known-bad fixture: acquisition sites that violate the RCU'd protocol —
// the maintenance → shard order, the one-shard-per-point-op rule, and the
// publication preconditions. (Fixtures are lexed, never compiled: the
// wrapper fns and RcuCell here are the real crate's names, not imports.)

use std::sync::{Arc, Mutex, RwLock};

pub struct Directory {
    // lock-order: shard
    pub shards: Vec<RwLock<Vec<u64>>>,
}

pub struct Map {
    // lock-order: rcu
    pub dir: RcuCell<Directory>,
    // lock-order: maintenance
    pub maint: Mutex<()>,
}

impl Map {
    pub fn bad_maintenance_under_shard(&self, d: &Directory) {
        let s = rlock(&d.shards[0], Level::Shard);
        // finding: maintenance lock requested under a shard guard
        let m = mlock(&self.maint);
        drop((s, m));
    }

    pub fn bad_maintenance_under_rcu(&self) {
        let d = rcu_load(&self.dir);
        // finding: maintenance lock requested while an RCU guard pins the
        // directory — the publisher's grace wait would deadlock
        let m = mlock(&self.maint);
        drop((d, m));
    }

    pub fn bad_second_shard(&self, d: &Directory) {
        let a = rlock(&d.shards[0], Level::Shard);
        // finding: second shard acquisition without the maintenance lock
        let b = rlock(&d.shards[1], Level::Shard);
        drop((a, b));
    }

    pub fn bad_publish_under_own_guard(&self, next: Arc<Directory>) {
        let m = mlock(&self.maint);
        let d = rcu_load(&self.dir);
        // finding: publishing while this thread's own RCU guard is live
        rcu_publish(&self.dir, next);
        drop((m, d));
    }

    pub fn bad_raw_maintenance(&self) {
        // finding: raw .lock() on an annotated field bypasses the tracker
        let _g = self.maint.lock();
        // finding: so does a raw non-blocking probe
        let _t = self.maint.try_lock();
    }

    pub fn fine_maintenance_stacks_shards(&self, d: &Directory, next: Arc<Directory>) {
        let m = mlock(&self.maint);
        {
            let a = wlock(&d.shards[0], Level::Shard);
            let b = wlock(&d.shards[1], Level::Shard);
            drop((a, b));
        }
        rcu_publish(&self.dir, next);
        drop(m);
    }

    pub fn fine_read_path(&self, d: &Directory) -> usize {
        let dir = rcu_load(&self.dir);
        let shard = rlock(&d.shards[0], Level::Shard);
        drop(dir);
        shard.len()
    }
}

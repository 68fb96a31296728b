// Known-bad fixture: acquisition sites that violate the sharded map's
// locking protocol — the maintenance → shard order, the
// one-shard-per-point-op rule, and the publication precondition.
// (Fixtures are lexed, never compiled: `rlock`/`wlock` and `mlock` are the
// methods of the real crate's `ShardLock` and `MaintLock`, and of its
// shards' closure-taking accessors; `publish` is its `Striped` cell's.)

pub struct Shard {
    pub map: ShardLock<Vec<u64>>,
}

pub struct Directory {
    pub shards: Vec<Shard>,
}

pub struct Map {
    pub dir: Striped<Directory>,
    pub maint: MaintLock,
}

impl Map {
    pub fn bad_second_shard(&self, d: &Directory) {
        let a = d.shards[0].map.rlock();
        // finding: second shard acquisition without the maintenance lock
        let b = d.shards[1].map.rlock();
        drop((a, b));
    }

    pub fn bad_second_shard_in_closure(&self, d: &Directory) -> Option<usize> {
        // The closure runs inside the first shard's lock.
        d.shards[0].wlock(|left| {
            // finding: second shard acquisition without the maintenance lock
            d.shards[1].rlock(|right| left.len() + right.len())
        })
    }

    pub fn bad_maintenance_under_shard(&self, d: &Directory) {
        let s = d.shards[0].map.rlock();
        // finding: maintenance lock requested under a shard guard
        let m = self.maint.mlock();
        drop((s, m));
    }

    pub fn bad_maintenance_reentry(&self) {
        let outer = self.maint.mlock();
        // finding: the maintenance mutex is not re-entrant
        let inner = self.maint.mlock();
        drop((outer, inner));
    }

    pub fn bad_publish_under_shard(&self, d: &Directory, next: Directory) {
        let m = self.maint.mlock();
        let s = d.shards[0].map.wlock();
        // finding: publishing while a shard guard is still live
        self.dir.publish(next);
        drop((m, s));
    }

    pub fn fine_maintenance_stacks_shards(&self, d: &Directory, next: Directory) {
        let m = self.maint.mlock();
        {
            let a = d.shards[0].map.wlock();
            let b = d.shards[1].map.wlock();
            drop((a, b));
        }
        self.dir.publish(next);
        drop(m);
    }

    // A `MaintGuard` parameter: the caller holds maintenance for the
    // whole body.
    fn fine_maintenance_helper_stacks_shards(&self, _m: &MaintGuard<'_>, d: &Directory) {
        let a = d.shards[0].map.wlock();
        let b = d.shards[1].map.wlock();
        drop((a, b));
    }

    pub fn fine_read_path(&self) -> usize {
        let dir = self.dir.load();
        let shard = dir.shards[0].map.rlock();
        shard.len()
    }

    pub fn fine_sequential(&self) -> usize {
        let n = {
            let dir = self.dir.load();
            let left = dir.shards[0].map.rlock();
            left.len()
        };
        let m = {
            let dir = self.dir.load();
            let right = dir.shards[1].map.rlock();
            right.len()
        };
        n + m
    }
}

#[cfg(test)]
mod tests {
    // Test code is exempt: the tracker's own tests invert the order on
    // purpose, to show that a debug build panics.
    #[test]
    fn fine_inversion_under_test() {
        let a = SHARD_A.rlock();
        let b = SHARD_B.rlock();
        drop((a, b));
    }
}

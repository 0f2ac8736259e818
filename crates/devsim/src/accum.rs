//! Per-work-group accumulation shared by the models that buffer a group's
//! accesses until it retires (the GPU coalescer and the implicit-SIMD CPU
//! model). Everything here iterates in first-issue order, never in hash
//! order, so a replay's cache probes — and with them its cycles — are the
//! same in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A multiplicative hasher for small integer keys (work-item ids, IR value
/// ids, occurrence counts). The keys come from the program's own trace
/// events, whose ranges the launch geometry and kernel size bound; the
/// worst a colliding kernel can do is slow its own replay, which the
/// launch's instruction budget already bounds.
#[derive(Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A `HashMap` keyed by small integers, hashed with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A map from keys to lists, iterated in the order the keys were first
/// seen.
pub(crate) struct IssueOrder<K, T> {
    slot: IntMap<K, usize>,
    lists: Vec<Vec<T>>,
}

impl<K, T> Default for IssueOrder<K, T> {
    fn default() -> Self {
        IssueOrder {
            slot: IntMap::default(),
            lists: Vec::new(),
        }
    }
}

impl<K: Hash + Eq, T> IssueOrder<K, T> {
    /// The list for `key`, appended empty if the key is new.
    pub(crate) fn entry(&mut self, key: K) -> &mut Vec<T> {
        let lists = &mut self.lists;
        let i = *self.slot.entry(key).or_insert_with(|| {
            lists.push(Vec::new());
            lists.len() - 1
        });
        &mut self.lists[i]
    }

    /// The lists, in first-issue order of their keys.
    pub(crate) fn lists(&self) -> &[Vec<T>] {
        &self.lists
    }
}

/// The work-groups whose accumulators are open. A serial replay has one
/// group open at a time, so lookup is a short linear search.
pub(crate) struct InFlight<A> {
    open: Vec<(u32, A)>,
}

impl<A> Default for InFlight<A> {
    fn default() -> Self {
        InFlight { open: Vec::new() }
    }
}

impl<A: Default> InFlight<A> {
    /// The accumulator of `group`, opened empty if new.
    pub(crate) fn get(&mut self, group: u32) -> &mut A {
        let i = match self.open.iter().position(|(g, _)| *g == group) {
            Some(i) => i,
            None => {
                self.open.push((group, A::default()));
                self.open.len() - 1
            }
        };
        &mut self.open[i].1
    }

    /// Close `group`, handing back its accumulator.
    pub(crate) fn take(&mut self, group: u32) -> Option<A> {
        let i = self.open.iter().position(|(g, _)| *g == group)?;
        Some(self.open.swap_remove(i).1)
    }

    /// The open groups, in ascending id.
    pub(crate) fn open_groups(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.open.iter().map(|(g, _)| *g).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_order_iterates_in_first_issue_order() {
        let mut m: IssueOrder<(u32, u32), u64> = IssueOrder::default();
        for (k, v) in [((9, 1), 1), ((2, 7), 2), ((9, 1), 3), ((0, 0), 4)] {
            m.entry(k).push(v);
        }
        assert_eq!(m.lists(), &[vec![1, 3], vec![2], vec![4]]);
    }

    #[test]
    fn in_flight_reports_open_groups_ascending() {
        let mut f: InFlight<u64> = InFlight::default();
        *f.get(7) += 1;
        *f.get(3) += 2;
        *f.get(7) += 4;
        assert_eq!(f.open_groups(), vec![3, 7]);
        assert_eq!(f.take(7), Some(5));
        assert_eq!(f.take(7), None);
        assert_eq!(*f.get(7), 0);
    }
}

//! Flat, address-ordered containers keyed by `u64`.
//!
//! Several hot per-line metadata tables in the Ma-SU (ECC/MAC sidecar,
//! pending counter-update tallies) were `HashMap<u64, u64>`s. They have two
//! problems there: hashing dominates the lookup cost for small integer keys,
//! and iteration order depends on the process-random hasher state, which is
//! one silent hole in the "every result is a pure function of the inputs"
//! guarantee. [`FlatMap`] is a sorted `Vec<(u64, V)>` with binary-search
//! lookups: cache-friendly probes and iteration in ascending key order,
//! always.
//!
//! Inserting a *new* key is `O(n)` (a memmove); the workloads here touch a
//! working set that grows once and is then hit repeatedly, so lookups and
//! updates-in-place dominate.
//!
//! [`LineTable`] is the store for large line-addressed contents (the NVM
//! device, the CPU-side image of the PM region): 4 KiB pages of 64 line
//! slots behind a [`FlatMap`] directory, so a lookup searches the touched
//! pages, not the touched lines, and iteration stays in address order.
//!
//! # Examples
//!
//! ```
//! use dolos_sim::flat::FlatMap;
//!
//! let mut m: FlatMap<u64> = FlatMap::new();
//! m.insert(7, 70);
//! m.insert(3, 30);
//! assert_eq!(m.get(7), Some(&70));
//! let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
//! assert_eq!(keys, vec![3, 7]); // always sorted
//! ```

use std::fmt;

/// A map from `u64` keys to `V`, stored as a sorted vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatMap<V> {
    entries: Vec<(u64, V)>,
}

impl<V> FlatMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Returns a reference to the value stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Returns a mutable reference to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.position(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was already present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns a mutable reference to the value under `key`, inserting
    /// `default` first if the key is absent (the `entry().or_insert()`
    /// pattern).
    pub fn get_mut_or_insert(&mut self, key: u64, default: V) -> &mut V {
        let i = match self.position(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates entries whose keys fall in `start..end`, in ascending key
    /// order: one binary search for the lower bound, then a sequential
    /// walk. Callers reading a run of consecutive keys (e.g. the BMT's
    /// 8-child node groups) use this instead of probing per key.
    pub fn range(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, &V)> {
        let lo = self.entries.partition_point(|&(k, _)| k < start);
        self.entries[lo..]
            .iter()
            .take_while(move |&&(k, _)| k < end)
            .map(|(k, v)| (*k, v))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Address bits below a line: tables are keyed by 64-byte line address.
const LINE_SHIFT: u32 = 6;

/// Address bits below a page: 64 lines (4 KiB of address space) per page,
/// one bit each in the page's presence mask.
const PAGE_SHIFT: u32 = 12;

/// Lines per [`LineTable`] page.
const PAGE_LINES: usize = 1 << (PAGE_SHIFT - LINE_SHIFT);

/// Splits a line address into its page number and its slot in the page.
fn split(addr: u64) -> (u64, usize) {
    (
        addr >> PAGE_SHIFT,
        (addr >> LINE_SHIFT) as usize % PAGE_LINES,
    )
}

/// One 4 KiB page of a [`LineTable`]: a slot per line and a mask of the
/// slots that hold a live entry. Absent slots keep a stale value that no
/// accessor returns.
#[derive(Clone)]
struct Page<T> {
    present: u64,
    slots: [T; PAGE_LINES],
}

impl<T: Copy> Page<T> {
    /// A page with no live entry, every slot filled with `blank`.
    #[cold]
    fn boxed(blank: T) -> Box<Self> {
        // audit:allow(hot-alloc) -- the first touch of a 4 KiB page must allocate it; later writes to its 64 lines reuse it
        Box::new(Page {
            present: 0,
            slots: [blank; PAGE_LINES],
        })
    }

    /// Whether `slot` holds a live entry.
    fn live(&self, slot: usize) -> bool {
        self.present & 1 << slot != 0
    }

    /// The live entries in slot order, keyed by line address.
    fn entries(&self, page: u64) -> impl Iterator<Item = (u64, &T)> {
        let base = page << PAGE_SHIFT;
        SetBits(self.present).map(move |s| (base | (s as u64) << LINE_SHIFT, &self.slots[s]))
    }
}

/// The set bit positions of a mask, lowest first.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// A sparse table keyed by 64-byte line address, for the line-addressed
/// stores: the NVM device's contents and the CPU-side image of the PM
/// region.
///
/// Lines are grouped into 4 KiB pages of 64 slots. A page is one heap
/// block with a 64-bit presence mask, allocated on the first touch of any
/// of its lines; the directory is a [`FlatMap`] from page number to page.
/// A lookup is one binary search over the touched pages and one mask test,
/// and memory grows with the pages touched, never with the highest address
/// (the device accepts any `u64` line address). Iteration walks the sorted
/// directory and each mask from its lowest bit, so it comes out in
/// ascending address order, like the `BTreeMap` it replaces.
///
/// Keys are line addresses: the low six bits are ignored. Removing an
/// entry keeps its page (a store that drops a line usually refills it);
/// [`LineTable::clear`] frees every page.
///
/// # Examples
///
/// ```
/// use dolos_sim::flat::LineTable;
///
/// let mut t: LineTable<u32> = LineTable::new();
/// t.insert(0x1040, 2);
/// t.insert(0x40, 1);
/// *t.get_mut_or_insert_with(0x1000, || 0) += 5;
/// assert_eq!(t.get(0x1040), Some(&2));
/// let keys: Vec<u64> = t.iter().map(|(a, _)| a).collect();
/// assert_eq!(keys, vec![0x40, 0x1000, 0x1040]); // always address order
/// ```
#[derive(Clone)]
pub struct LineTable<T> {
    pages: FlatMap<Box<Page<T>>>,
    len: usize,
}

impl<T: Copy> Default for LineTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for LineTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T: Copy> LineTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        LineTable {
            pages: FlatMap::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a reference to the entry for line `addr`, if any.
    pub fn get(&self, addr: u64) -> Option<&T> {
        let (page, slot) = split(addr);
        let page = self.pages.get(page)?;
        page.live(slot).then(|| &page.slots[slot])
    }

    /// Returns a mutable reference to the entry for line `addr`, if any.
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut T> {
        let (page, slot) = split(addr);
        let page = self.pages.get_mut(page)?;
        page.live(slot).then(|| &mut page.slots[slot])
    }

    /// Returns a mutable reference to the entry for line `addr`, inserting
    /// `f()` first if it is absent: one directory search either way.
    pub fn get_mut_or_insert_with(&mut self, addr: u64, f: impl FnOnce() -> T) -> &mut T {
        let (page_no, slot) = split(addr);
        let i = match self.pages.position(page_no) {
            Ok(i) => i,
            Err(i) => {
                // A fresh page is filled with the new entry's value, so its
                // slot needs no second write.
                let mut page = Page::boxed(f());
                page.present = 1 << slot;
                self.pages.entries.insert(i, (page_no, page));
                self.len += 1;
                return &mut self.pages.entries[i].1.slots[slot];
            }
        };
        let page = &mut self.pages.entries[i].1;
        if !page.live(slot) {
            page.slots[slot] = f();
            page.present |= 1 << slot;
            self.len += 1;
        }
        &mut page.slots[slot]
    }

    /// Inserts `value` for line `addr`, returning the previous entry if
    /// there was one.
    pub fn insert(&mut self, addr: u64, value: T) -> Option<T> {
        let mut fresh = false;
        let slot = self.get_mut_or_insert_with(addr, || {
            fresh = true;
            value
        });
        (!fresh).then(|| std::mem::replace(slot, value))
    }

    /// Removes the entry for line `addr`, returning it if it was present.
    pub fn remove(&mut self, addr: u64) -> Option<T> {
        let (page, slot) = split(addr);
        let page = self.pages.get_mut(page)?;
        if !page.live(slot) {
            return None;
        }
        page.present &= !(1 << slot);
        self.len -= 1;
        Some(page.slots[slot])
    }

    /// Iterates entries in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.pages.iter().flat_map(|(p, page)| page.entries(p))
    }

    /// Iterates entries whose addresses fall in `start..end`, in ascending
    /// address order. Only the pages overlapping the range are visited.
    pub fn range(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, &T)> {
        let last_page = end.saturating_sub(1) >> PAGE_SHIFT;
        self.pages
            .range(start >> PAGE_SHIFT, last_page + 1)
            .flat_map(|(p, page)| page.entries(p))
            .skip_while(move |&(a, _)| a < start)
            .take_while(move |&(a, _)| a < end)
    }

    /// Removes every entry and frees every page.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: FlatMap<u64> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(10, 1), None);
        assert_eq!(m.insert(5, 2), None);
        assert_eq!(m.insert(20, 3), None);
        assert_eq!(m.insert(10, 9), Some(1)); // overwrite returns old value
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(5), Some(&2));
        assert_eq!(m.get(10), Some(&9));
        assert_eq!(m.get(11), None);
        assert!(m.contains_key(20));
        assert_eq!(m.remove(5), Some(2));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_sorted_regardless_of_insert_order() {
        let mut m: FlatMap<u32> = FlatMap::new();
        for k in [9u64, 1, 7, 3, 8, 2] {
            m.insert(k, k as u32);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn range_walks_exactly_the_requested_keys() {
        let mut m: FlatMap<u32> = FlatMap::new();
        for k in [0u64, 3, 7, 8, 9, 15, 16, 40] {
            m.insert(k, k as u32);
        }
        let collect = |lo: u64, hi: u64| m.range(lo, hi).map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(collect(8, 16), vec![8, 9, 15]); // half-open
        assert_eq!(collect(0, 4), vec![0, 3]);
        assert_eq!(collect(10, 15), vec![]); // gap
        assert_eq!(collect(41, u64::MAX), vec![]); // past the end

        // Agreement with per-key probes over every 8-aligned group.
        for first in (0..48).step_by(8) {
            let via_range: Vec<_> = m.range(first, first + 8).map(|(k, v)| (k, *v)).collect();
            let via_get: Vec<_> = (first..first + 8)
                .filter_map(|k| m.get(k).map(|v| (k, *v)))
                .collect();
            assert_eq!(via_range, via_get, "group at {first}");
        }
    }

    #[test]
    fn get_mut_or_insert_matches_entry_or_insert() {
        let mut m: FlatMap<u64> = FlatMap::new();
        *m.get_mut_or_insert(4, 0) += 1;
        *m.get_mut_or_insert(4, 0) += 1;
        *m.get_mut_or_insert(2, 10) += 1;
        assert_eq!(m.get(4), Some(&2));
        assert_eq!(m.get(2), Some(&11));
    }

    #[test]
    fn line_table_pages_grow_with_touch_not_address() {
        let top = !63u64; // the highest line address
        let mut t: LineTable<u8> = LineTable::new();
        t.insert(0, 1);
        t.insert(top, 2);
        t.insert(top - 64, 3); // same page as `top`
        assert_eq!(t.pages.len(), 2);
        assert_eq!(t.len(), 3);
        let all: Vec<(u64, u8)> = t.iter().map(|(a, v)| (a, *v)).collect();
        assert_eq!(all, vec![(0, 1), (top - 64, 3), (top, 2)]);
        let tail: Vec<u64> = t.range(top - 64, u64::MAX).map(|(a, _)| a).collect();
        // `u64::MAX` is not a line address, so the range ends at `top`.
        assert_eq!(tail, vec![top - 64, top]);
        // Removing keeps the page for a refill; clearing frees it.
        assert_eq!(t.remove(0), Some(1));
        assert_eq!(t.pages.len(), 2);
        t.clear();
        assert!(t.is_empty() && t.pages.is_empty());
    }

    #[test]
    fn get_mut_and_clear() {
        let mut m: FlatMap<u64> = FlatMap::new();
        m.insert(1, 1);
        *m.get_mut(1).unwrap() = 42;
        assert_eq!(m.get(1), Some(&42));
        assert!(m.get_mut(2).is_none());
        m.clear();
        assert!(m.is_empty());
    }
}

//! Copy-on-write view of global memory for the parallel SM fan-out.
//!
//! Every fan-out engine must see the pre-launch image plus its own
//! writes, and nothing of the other SMs' writes. Each worker therefore
//! reads the one shared pristine image through a page table; the first
//! store to a page copies that page into the worker's arena, and later
//! accesses to it go there. When an SM finishes, only its dirty pages
//! are compared with the pristine image, which yields the `(offset,
//! bytes)` runs the launch merges in SM-id order. A kernel that touches
//! a few KB of a multi-MB image pays for a few pages, not the image.

use crate::exec::{read_bytes, write_bytes};
use orion_kir::sem::Val;
use orion_kir::types::Width;

/// Size of one copy-on-write page in bytes.
const PAGE_SIZE: usize = 4096;

/// Page-table entry of a page still read from the pristine image.
const CLEAN: u32 = u32::MAX;

/// The byte ranges an engine changed, as `(offset, new bytes)` runs
/// against the pristine pre-launch image, in address order.
pub(crate) type WriteRuns = Vec<(usize, Vec<u8>)>;

/// One worker's copy-on-write overlay over the shared pristine image.
/// Reused across the SMs a worker runs: [`PageOverlay::take_runs`]
/// returns it to all-clean while keeping its page buffers.
pub(crate) struct PageOverlay<'p> {
    pristine: &'p [u8],
    /// Per page: its slot in `arena`, or [`CLEAN`].
    slots: Vec<u32>,
    /// Dirty page copies, `PAGE_SIZE` bytes per slot in first-store
    /// order (the image's last page may use only a prefix of its slot).
    arena: Vec<u8>,
    /// Page index of each arena slot.
    dirty: Vec<u32>,
}

impl<'p> PageOverlay<'p> {
    pub(crate) fn new(pristine: &'p [u8]) -> Self {
        PageOverlay {
            pristine,
            slots: vec![CLEAN; pristine.len().div_ceil(PAGE_SIZE)],
            arena: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Bytes of page `p` that lie inside the image.
    fn page_len(&self, p: usize) -> usize {
        (self.pristine.len() - p * PAGE_SIZE).min(PAGE_SIZE)
    }

    /// Current contents of page `p`.
    fn page(&self, p: usize) -> &[u8] {
        let len = self.page_len(p);
        match self.slots[p] {
            CLEAN => &self.pristine[p * PAGE_SIZE..p * PAGE_SIZE + len],
            s => &self.arena[s as usize * PAGE_SIZE..][..len],
        }
    }

    /// Page `p` for writing, copied from the pristine image on first use.
    fn page_mut(&mut self, p: usize) -> &mut [u8] {
        let len = self.page_len(p);
        if self.slots[p] == CLEAN {
            self.slots[p] = self.dirty.len() as u32;
            self.dirty.push(p as u32);
            self.arena.extend_from_slice(&self.pristine[p * PAGE_SIZE..p * PAGE_SIZE + len]);
            self.arena.resize(self.dirty.len() * PAGE_SIZE, 0);
        }
        &mut self.arena[self.slots[p] as usize * PAGE_SIZE..][..len]
    }

    /// `(first byte, length)` of a `width` access at `addr`, or `None`
    /// when it does not fit in the image.
    fn span(&self, addr: u64, width: Width) -> Option<(usize, usize)> {
        let n = width.bytes() as usize;
        let a = addr as usize;
        (a.checked_add(n)? <= self.pristine.len()).then_some((a, n))
    }

    /// Load like `read_bytes` over the overlaid image.
    pub(crate) fn read(&self, addr: u64, width: Width) -> Option<Val> {
        let (a, n) = self.span(addr, width)?;
        let off = a % PAGE_SIZE;
        if off + n <= PAGE_SIZE {
            return read_bytes(self.page(a / PAGE_SIZE), off as u64, width);
        }
        // Straddles a page boundary: gather the bytes, then decode.
        let mut bytes = [0u8; 16];
        for (i, b) in bytes[..n].iter_mut().enumerate() {
            *b = self.page((a + i) / PAGE_SIZE)[(a + i) % PAGE_SIZE];
        }
        read_bytes(&bytes[..n], 0, width)
    }

    /// Store like `write_bytes` into the overlay: all bytes or none.
    pub(crate) fn write(&mut self, addr: u64, width: Width, v: Val) -> Option<()> {
        let (a, n) = self.span(addr, width)?;
        let off = a % PAGE_SIZE;
        if off + n <= PAGE_SIZE {
            return write_bytes(self.page_mut(a / PAGE_SIZE), off as u64, width, v);
        }
        // Straddles a page boundary: encode, then scatter the bytes.
        let mut bytes = [0u8; 16];
        write_bytes(&mut bytes[..n], 0, width, v)?;
        for (i, &b) in bytes[..n].iter().enumerate() {
            self.page_mut((a + i) / PAGE_SIZE)[(a + i) % PAGE_SIZE] = b;
        }
        Some(())
    }

    /// The bytes the stores since the last call changed, as maximal
    /// runs in address order — exactly what a byte compare of the whole
    /// image would find, since clean pages cannot differ. Leaves every
    /// page clean and keeps the arena's capacity for the next SM.
    pub(crate) fn take_runs(&mut self) -> WriteRuns {
        let mut pages = std::mem::take(&mut self.dirty);
        pages.sort_unstable();
        let mut runs = WriteRuns::new();
        for &p in &pages {
            let p = p as usize;
            let base = p * PAGE_SIZE;
            let new = self.page(p);
            let old = &self.pristine[base..base + new.len()];
            let mut i = 0;
            while i < new.len() {
                if old[i] == new[i] {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < new.len() && old[i] != new[i] {
                    i += 1;
                }
                // A run ending on the last byte of a page continues into
                // the next page's run if that one starts at its first byte.
                match runs.last_mut() {
                    Some((at, bytes)) if *at + bytes.len() == base + start => {
                        bytes.extend_from_slice(&new[start..i]);
                    }
                    _ => runs.push((base + start, new[start..i].to_vec())),
                }
            }
            self.slots[p] = CLEAN;
        }
        pages.clear();
        self.dirty = pages;
        self.arena.clear();
        runs
    }
}

/// Copy `runs` into `global`.
pub(crate) fn apply_runs(global: &mut [u8], runs: &WriteRuns) {
    for (start, bytes) in runs {
        global[*start..*start + bytes.len()].copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(words: [u32; 4]) -> Val {
        Val { w: words }
    }

    #[test]
    fn straddling_access_round_trips_and_diffs_as_one_run() {
        let pristine = vec![0u8; 2 * PAGE_SIZE + 100];
        let mut o = PageOverlay::new(&pristine);
        let at = (PAGE_SIZE - 6) as u64;
        let v = val([0x0403_0201, 0x0807_0605, 0x0c0b_0a09, 0x100f_0e0d]);
        o.write(at, Width::W128, v).unwrap();
        assert_eq!(o.read(at, Width::W128), Some(v));
        assert_eq!(o.read(0, Width::W32), Some(val([0; 4])));
        let runs = o.take_runs();
        assert_eq!(runs, vec![(PAGE_SIZE - 6, (1..=16).collect::<Vec<u8>>())]);
        // Taking the runs resets the overlay to the pristine image.
        assert_eq!(o.read(at, Width::W128), Some(val([0; 4])));
        assert!(o.take_runs().is_empty());
    }

    #[test]
    fn partial_last_page_is_bounds_checked_against_the_image() {
        let pristine = vec![7u8; PAGE_SIZE + 10];
        let mut o = PageOverlay::new(&pristine);
        let last = (PAGE_SIZE + 6) as u64;
        assert!(o.write(last, Width::W32, val([0; 4])).is_some());
        assert!(o.write(last + 1, Width::W32, val([0; 4])).is_none());
        assert!(o.read(last + 4, Width::W32).is_none());
        assert!(o.read(u64::MAX - 1, Width::W32).is_none());
        assert_eq!(o.take_runs(), vec![(PAGE_SIZE + 6, vec![0; 4])]);
    }

    #[test]
    fn unchanged_bytes_do_not_land() {
        let pristine: Vec<u8> = (0..PAGE_SIZE as u32 * 3).map(|i| i as u8).collect();
        let mut o = PageOverlay::new(&pristine);
        // Rewrite page 2 with its own bytes, then change one word on
        // page 0: only that word is a run, and page order holds.
        o.write(2 * PAGE_SIZE as u64, Width::W32, val([0x0302_0100, 0, 0, 0])).unwrap();
        o.write(8, Width::W32, val([0xdead_beef, 0, 0, 0])).unwrap();
        assert_eq!(o.take_runs(), vec![(8, 0xdead_beef_u32.to_le_bytes().to_vec())]);
    }
}

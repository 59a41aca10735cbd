//! The program's single virtual address space: sparse backing pages plus a
//! bump region allocator standing in for `mmap`.

use crate::{Addr, IdMap, PageIdx, VirtRange, VmemError, PAGE_SIZE};

/// Base of the allocatable region. Low addresses stay unmapped so that
/// null-ish pointers fault, as on a real OS.
const ALLOC_BASE: u64 = 0x0000_1000_0000;

/// Exclusive top of the allocatable region (mirrors VT-x's 40-bit physical
/// address ceiling the paper works around in §5.3).
const ALLOC_TOP: u64 = 1 << 40;

/// The simulated program's virtual address space.
///
/// One `AddressSpace` backs the whole program; execution environments differ
/// only in their [`crate::PageTable`] view of it. Pages are materialized
/// lazily on first allocation and are zero-filled, like anonymous `mmap`.
#[derive(Debug, Default)]
pub struct AddressSpace {
    pages: IdMap<PageIdx, Box<[u8]>>,
    next: u64,
    allocated_bytes: u64,
}

impl AddressSpace {
    /// Creates an empty address space.
    #[must_use]
    pub fn new() -> AddressSpace {
        AddressSpace {
            pages: IdMap::default(),
            next: ALLOC_BASE,
            allocated_bytes: 0,
        }
    }

    /// Allocates a fresh page-aligned region of at least `len` bytes
    /// (rounded up to whole pages) and backs it with zeroed pages.
    ///
    /// This is the simulated `mmap`: regions are never reused, so a dangling
    /// reference into a freed region faults instead of aliasing new data.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::OutOfAddressSpace`] if the 40-bit region is
    /// exhausted.
    pub fn alloc(&mut self, len: u64) -> Result<VirtRange, VmemError> {
        let len = Addr(len).page_align_up().0.max(PAGE_SIZE);
        let start = self.next;
        let end = start.checked_add(len).ok_or(VmemError::OutOfAddressSpace)?;
        if end > ALLOC_TOP {
            return Err(VmemError::OutOfAddressSpace);
        }
        self.next = end;
        let range = VirtRange::new(Addr(start), len);
        for page in range.pages() {
            self.pages
                .insert(page, vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        }
        self.allocated_bytes += len;
        Ok(range)
    }

    /// Releases the backing memory of a page-aligned range. Later accesses
    /// to it return [`VmemError::NotBacked`].
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::Unaligned`] for a non-page-aligned range.
    pub fn release(&mut self, range: VirtRange) -> Result<(), VmemError> {
        if !range.is_page_aligned() {
            return Err(VmemError::Unaligned { range });
        }
        for page in range.pages() {
            if self.pages.remove(&page).is_some() {
                self.allocated_bytes -= PAGE_SIZE;
            }
        }
        Ok(())
    }

    /// True if every byte of `[addr, addr+len)` has backing memory.
    #[must_use]
    pub fn is_backed(&self, addr: Addr, len: u64) -> bool {
        if len == 0 {
            return self.pages.contains_key(&addr.page());
        }
        VirtRange::new(addr, len)
            .pages()
            .all(|p| self.pages.contains_key(&p))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotBacked`] if any touched page has no backing.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), VmemError> {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let page = self
                .pages
                .get(&cursor.page())
                .ok_or(VmemError::NotBacked { addr: cursor })?;
            let off = cursor.page_offset() as usize;
            let take = ((PAGE_SIZE as usize) - off).min(buf.len() - filled);
            buf[filled..filled + take].copy_from_slice(&page[off..off + take]);
            filled += take;
            cursor = Addr(cursor.0 + take as u64);
        }
        Ok(())
    }

    /// Convenience wrapper over [`AddressSpace::read`] returning a fresh
    /// buffer.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::read`].
    pub fn read_vec(&self, addr: Addr, len: u64) -> Result<Vec<u8>, VmemError> {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::read`].
    pub fn read_u64(&self, addr: Addr) -> Result<u64, VmemError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotBacked`] if any touched page has no backing;
    /// in that case a prefix of the write may have landed (like a partial
    /// store before a fault).
    pub fn write(&mut self, addr: Addr, data: &[u8]) -> Result<(), VmemError> {
        let mut cursor = addr;
        let mut written = 0usize;
        while written < data.len() {
            let page = self
                .pages
                .get_mut(&cursor.page())
                .ok_or(VmemError::NotBacked { addr: cursor })?;
            let off = cursor.page_offset() as usize;
            let take = ((PAGE_SIZE as usize) - off).min(data.len() - written);
            page[off..off + take].copy_from_slice(&data[written..written + take]);
            written += take;
            cursor = Addr(cursor.0 + take as u64);
        }
        Ok(())
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::write`].
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), VmemError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Fills `len` bytes at `addr` with `byte`.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::write`].
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), VmemError> {
        // Page-at-a-time to avoid a giant temporary.
        let mut cursor = addr;
        let mut remaining = len;
        while remaining > 0 {
            let page = self
                .pages
                .get_mut(&cursor.page())
                .ok_or(VmemError::NotBacked { addr: cursor })?;
            let off = cursor.page_offset() as usize;
            let take = (PAGE_SIZE - off as u64).min(remaining);
            page[off..off + take as usize].fill(byte);
            remaining -= take;
            cursor = Addr(cursor.0 + take);
        }
        Ok(())
    }

    /// Total bytes currently backed.
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Number of backed pages.
    #[must_use]
    pub fn page_len(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_zeroed() {
        let mut s = AddressSpace::new();
        let r = s.alloc(10).unwrap();
        assert!(r.is_page_aligned());
        assert_eq!(r.len(), PAGE_SIZE);
        assert_eq!(s.read_vec(r.start(), 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn alloc_regions_never_overlap() {
        let mut s = AddressSpace::new();
        let a = s.alloc(PAGE_SIZE).unwrap();
        let b = s.alloc(3 * PAGE_SIZE).unwrap();
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut s = AddressSpace::new();
        let r = s.alloc(3 * PAGE_SIZE).unwrap();
        let data: Vec<u8> = (0..=255).cycle().take(5000).collect();
        let at = r.start() + (PAGE_SIZE - 100);
        s.write(at, &data).unwrap();
        assert_eq!(s.read_vec(at, 5000).unwrap(), data);
    }

    #[test]
    fn u64_roundtrip() {
        let mut s = AddressSpace::new();
        let r = s.alloc(PAGE_SIZE).unwrap();
        s.write_u64(r.start() + 8, 0xdead_beef_cafe).unwrap();
        assert_eq!(s.read_u64(r.start() + 8).unwrap(), 0xdead_beef_cafe);
    }

    #[test]
    fn released_pages_fault() {
        let mut s = AddressSpace::new();
        let r = s.alloc(PAGE_SIZE).unwrap();
        s.release(r).unwrap();
        assert!(matches!(
            s.read_vec(r.start(), 1),
            Err(VmemError::NotBacked { .. })
        ));
        assert!(!s.is_backed(r.start(), 1));
    }

    #[test]
    fn release_rejects_unaligned() {
        let mut s = AddressSpace::new();
        let r = s.alloc(PAGE_SIZE).unwrap();
        let sub = VirtRange::new(r.start() + 1, 10);
        assert!(matches!(s.release(sub), Err(VmemError::Unaligned { .. })));
    }

    #[test]
    fn fill_spans_pages() {
        let mut s = AddressSpace::new();
        let r = s.alloc(2 * PAGE_SIZE).unwrap();
        s.fill(r.start() + 10, PAGE_SIZE + 20, 0xAB).unwrap();
        let v = s.read_vec(r.start() + 10, PAGE_SIZE + 20).unwrap();
        assert!(v.iter().all(|&b| b == 0xAB));
        assert_eq!(s.read_vec(r.start(), 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn accounting_tracks_alloc_and_release() {
        let mut s = AddressSpace::new();
        let r = s.alloc(3 * PAGE_SIZE).unwrap();
        assert_eq!(s.allocated_bytes(), 3 * PAGE_SIZE);
        assert_eq!(s.page_len(), 3);
        s.release(r).unwrap();
        assert_eq!(s.allocated_bytes(), 0);
        assert_eq!(s.page_len(), 0);
    }

    #[test]
    fn partial_write_faults_at_boundary() {
        let mut s = AddressSpace::new();
        let r = s.alloc(PAGE_SIZE).unwrap();
        // Write starting near the end of the only backed page.
        let at = r.start() + (PAGE_SIZE - 4);
        let err = s.write(at, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap_err();
        assert!(matches!(err, VmemError::NotBacked { .. }));
        // The in-page prefix landed.
        assert_eq!(s.read_vec(at, 4).unwrap(), vec![1, 2, 3, 4]);
    }
}

//! Per-execution-environment page tables.

use std::fmt;
use std::sync::Arc;

use crate::{Access, Addr, IdMap, PageIdx, VirtRange, VmemError};

/// An Intel MPK protection key: a 4-bit tag stored in the page table entry
/// (§5.3, "page table entries are tagged using 4 previously ignored bits").
pub type ProtectionKey = u8;

/// Key 0 is the kernel's default key: accessible whenever the page rights
/// allow, like untagged pages on real hardware.
pub const NO_KEY: ProtectionKey = 0;

/// A single page-table entry: present bit, access rights, and MPK key tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Whether the page is mapped in this environment. The VT-x backend
    /// implements `Transfer` by toggling presence bits (§6.1).
    pub present: bool,
    /// Rights granted by this table (independent of the key check).
    pub rights: Access,
    /// MPK protection key tag (0–15).
    pub key: ProtectionKey,
}

impl PageEntry {
    /// A present entry with the given rights and key.
    #[must_use]
    pub fn new(rights: Access, key: ProtectionKey) -> PageEntry {
        PageEntry {
            present: true,
            rights,
            key,
        }
    }
}

/// A page table describing one execution environment's view of the address
/// space.
///
/// * The **VT-x backend** creates one table per enclosure and switches the
///   simulated CR3 between them (§5.3).
/// * The **MPK backend** uses a single shared table whose entries carry key
///   tags; the per-environment state is the PKRU register, checked by the
///   CPU layer on top of this table.
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Shared with every fault this table reports, so a denied access
    /// allocates nothing.
    name: Arc<str>,
    entries: IdMap<PageIdx, PageEntry>,
}

impl PageTable {
    /// Creates an empty table named `name` (names appear in fault traces).
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>) -> PageTable {
        PageTable {
            name: name.into(),
            entries: IdMap::default(),
        }
    }

    /// The table's (environment's) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's name as the shared handle faults carry.
    #[must_use]
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Maps every page of `range` with `rights` and `key`, replacing any
    /// existing entries.
    pub fn map_range(&mut self, range: VirtRange, rights: Access, key: ProtectionKey) {
        for page in range.pages() {
            self.entries.insert(page, PageEntry::new(rights, key));
        }
    }

    /// Removes every page of `range` from the table.
    pub fn unmap_range(&mut self, range: VirtRange) {
        for page in range.pages() {
            self.entries.remove(&page);
        }
    }

    /// Changes the rights of already-mapped pages (simulated `mprotect`).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::BadRange`] if any page of `range` is unmapped.
    pub fn protect_range(&mut self, range: VirtRange, rights: Access) -> Result<(), VmemError> {
        self.check_mapped(range, "protect")?;
        for page in range.pages() {
            if let Some(entry) = self.entries.get_mut(&page) {
                entry.rights = rights;
            }
        }
        Ok(())
    }

    /// Re-tags already-mapped pages with `key` (simulated `pkey_mprotect`).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::BadRange`] if any page of `range` is unmapped.
    pub fn retag_range(&mut self, range: VirtRange, key: ProtectionKey) -> Result<(), VmemError> {
        self.check_mapped(range, "retag")?;
        for page in range.pages() {
            if let Some(entry) = self.entries.get_mut(&page) {
                entry.key = key;
            }
        }
        Ok(())
    }

    /// Sets the presence bit for already-mapped pages. The VT-x backend's
    /// `Transfer` toggles presence instead of rewriting mappings (§6.1).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::BadRange`] if any page of `range` is unmapped.
    pub fn set_present(&mut self, range: VirtRange, present: bool) -> Result<(), VmemError> {
        self.check_mapped(range, "set_present")?;
        for page in range.pages() {
            if let Some(entry) = self.entries.get_mut(&page) {
                entry.present = present;
            }
        }
        Ok(())
    }

    /// Looks up the entry covering `addr`.
    #[must_use]
    pub fn entry(&self, addr: Addr) -> Option<&PageEntry> {
        self.entries.get(&addr.page())
    }

    /// Checks that the whole span `[addr, addr+len)` is mapped, present, and
    /// grants `needed`.
    ///
    /// This is the page-rights half of the access check; the MPK key/PKRU
    /// half lives in the CPU layer, which has the register state (see
    /// [`PageTable::check_keyed`]).
    ///
    /// # Errors
    ///
    /// * [`VmemError::Unmapped`] for absent or non-present pages.
    /// * [`VmemError::ProtectionFault`] when rights are insufficient.
    pub fn check(&self, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        self.check_keyed(addr, len, needed, |_| true).map(|_| ())
    }

    /// [`PageTable::check`] plus a key test, reading each page entry once.
    ///
    /// Returns `Ok(Some((fault_addr, key)))` for the first page whose key
    /// `key_ok` rejects. A rights fault anywhere in the span takes
    /// precedence over a key denial, exactly as if the whole span were
    /// rights-checked first and key-checked second.
    ///
    /// A fault is reported at `addr` while on `addr`'s own page and at
    /// the faulting page's base after it.
    ///
    /// # Errors
    ///
    /// As [`PageTable::check`].
    pub fn check_keyed(
        &self,
        addr: Addr,
        len: u64,
        needed: Access,
        key_ok: impl Fn(ProtectionKey) -> bool,
    ) -> Result<Option<(Addr, ProtectionKey)>, VmemError> {
        let mut denied = None;
        for page in VirtRange::new(addr, len.max(1)).pages() {
            let entry = match self.entries.get(&page) {
                Some(entry) if entry.present => entry,
                _ => {
                    return Err(VmemError::Unmapped {
                        addr: page.base(),
                        table: Arc::clone(&self.name),
                    })
                }
            };
            let at = if page == addr.page() {
                addr
            } else {
                page.base()
            };
            if !entry.rights.contains(needed) {
                return Err(VmemError::ProtectionFault {
                    addr: at,
                    needed,
                    granted: entry.rights,
                    table: Arc::clone(&self.name),
                });
            }
            if denied.is_none() && !key_ok(entry.key) {
                denied = Some((at, entry.key));
            }
        }
        Ok(denied)
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(page, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PageIdx, &PageEntry)> {
        self.entries.iter().map(|(p, e)| (*p, e))
    }

    fn check_mapped(&self, range: VirtRange, what: &'static str) -> Result<(), VmemError> {
        for page in range.pages() {
            if !self.entries.contains_key(&page) {
                return Err(VmemError::BadRange { range, what });
            }
        }
        Ok(())
    }
}

impl fmt::Display for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PageTable('{}', {} pages)",
            self.name,
            self.entries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn range(pages: u64) -> VirtRange {
        VirtRange::new(Addr(0x10_000), pages * PAGE_SIZE)
    }

    #[test]
    fn map_and_check() {
        let mut t = PageTable::new("env");
        t.map_range(range(2), Access::RW, 3);
        assert!(t.check(Addr(0x10_000), 8, Access::R).is_ok());
        assert!(t.check(Addr(0x10_000), 8, Access::W).is_ok());
        assert!(matches!(
            t.check(Addr(0x10_000), 8, Access::X),
            Err(VmemError::ProtectionFault { .. })
        ));
    }

    #[test]
    fn unmapped_pages_fault() {
        let t = PageTable::new("env");
        assert!(matches!(
            t.check(Addr(0x10_000), 1, Access::R),
            Err(VmemError::Unmapped { .. })
        ));
    }

    #[test]
    fn check_spans_multiple_pages() {
        let mut t = PageTable::new("env");
        t.map_range(VirtRange::new(Addr(0x10_000), PAGE_SIZE), Access::R, 0);
        // Second page unmapped: a span crossing into it faults.
        let err = t
            .check(Addr(0x10_000 + PAGE_SIZE - 4), 8, Access::R)
            .unwrap_err();
        assert!(matches!(err, VmemError::Unmapped { .. }));
    }

    #[test]
    fn protect_changes_rights() {
        let mut t = PageTable::new("env");
        t.map_range(range(1), Access::RW, 0);
        t.protect_range(range(1), Access::R).unwrap();
        assert!(matches!(
            t.check(Addr(0x10_000), 1, Access::W),
            Err(VmemError::ProtectionFault { .. })
        ));
    }

    #[test]
    fn protect_unmapped_is_bad_range() {
        let mut t = PageTable::new("env");
        assert!(matches!(
            t.protect_range(range(1), Access::R),
            Err(VmemError::BadRange { .. })
        ));
    }

    #[test]
    fn presence_toggle_behaves_like_vtx_transfer() {
        let mut t = PageTable::new("enclosure");
        t.map_range(range(4), Access::RW, 0);
        t.set_present(range(4), false).unwrap();
        assert!(matches!(
            t.check(Addr(0x10_000), 1, Access::R),
            Err(VmemError::Unmapped { .. })
        ));
        t.set_present(range(4), true).unwrap();
        assert!(t.check(Addr(0x10_000), 1, Access::R).is_ok());
    }

    #[test]
    fn retag_updates_keys() {
        let mut t = PageTable::new("env");
        t.map_range(range(1), Access::RW, 1);
        t.retag_range(range(1), 7).unwrap();
        assert_eq!(t.entry(Addr(0x10_000)).unwrap().key, 7);
    }

    #[test]
    fn unmap_removes_entries() {
        let mut t = PageTable::new("env");
        t.map_range(range(2), Access::R, 0);
        t.unmap_range(range(2));
        assert_eq!(t.mapped_pages(), 0);
    }

    #[test]
    fn zero_length_check_still_validates_page() {
        let mut t = PageTable::new("env");
        t.map_range(range(1), Access::R, 0);
        assert!(t.check(Addr(0x10_000), 0, Access::R).is_ok());
        assert!(t.check(Addr(0x20_000), 0, Access::R).is_err());
    }
}

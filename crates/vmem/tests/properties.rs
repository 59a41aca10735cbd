//! Property-based tests over the memory substrate invariants.

use std::collections::BTreeMap;

use enclosure_support::XorShift;
use enclosure_vmem::{
    Access, Addr, AddressSpace, PageEntry, PageIdx, PageTable, VirtRange, VmemError, PAGE_SIZE,
};

/// Pages the differential test touches: an allocated window plus a
/// margin of never-backed pages after it.
const WINDOW_PAGES: u64 = 16;
const TOUCHED_PAGES: u64 = WINDOW_PAGES + 4;

/// A `BTreeMap` reference model of a [`PageTable`] plus the backing
/// store of an [`AddressSpace`], written from the documented semantics.
struct Model {
    name: &'static str,
    entries: BTreeMap<u64, PageEntry>,
    backing: BTreeMap<u64, Vec<u8>>,
}

impl Model {
    fn fault_addr(addr: Addr, page: u64) -> Addr {
        if page == addr.page().0 {
            addr
        } else {
            PageIdx(page).base()
        }
    }

    fn bad_range(&self, range: VirtRange, what: &'static str) -> Result<(), VmemError> {
        if range.pages().all(|p| self.entries.contains_key(&p.0)) {
            Ok(())
        } else {
            Err(VmemError::BadRange { range, what })
        }
    }

    fn update(
        &mut self,
        range: VirtRange,
        what: &'static str,
        f: impl Fn(&mut PageEntry),
    ) -> Result<(), VmemError> {
        self.bad_range(range, what)?;
        for p in range.pages() {
            f(self.entries.get_mut(&p.0).expect("checked"));
        }
        Ok(())
    }

    fn check_keyed(
        &self,
        addr: Addr,
        len: u64,
        needed: Access,
        denied_keys: u16,
    ) -> Result<Option<(Addr, u8)>, VmemError> {
        let pages: Vec<u64> = VirtRange::new(addr, len.max(1))
            .pages()
            .map(|p| p.0)
            .collect();
        // Pass 1: page rights over the whole span.
        for &p in &pages {
            match self.entries.get(&p) {
                Some(e) if e.present => {
                    if !e.rights.contains(needed) {
                        return Err(VmemError::ProtectionFault {
                            addr: Model::fault_addr(addr, p),
                            needed,
                            granted: e.rights,
                            table: self.name.into(),
                        });
                    }
                }
                _ => {
                    return Err(VmemError::Unmapped {
                        addr: PageIdx(p).base(),
                        table: self.name.into(),
                    })
                }
            }
        }
        // Pass 2: keys.
        Ok(pages.iter().find_map(|&p| {
            let key = self.entries[&p].key;
            (denied_keys & (1 << key) != 0).then(|| (Model::fault_addr(addr, p), key))
        }))
    }

    fn read(&self, addr: Addr, len: u64) -> Result<Vec<u8>, VmemError> {
        let mut out = Vec::new();
        let mut cursor = addr.0;
        while (out.len() as u64) < len {
            let page = self
                .backing
                .get(&(cursor / PAGE_SIZE))
                .ok_or(VmemError::NotBacked { addr: Addr(cursor) })?;
            out.push(page[(cursor % PAGE_SIZE) as usize]);
            cursor += 1;
        }
        Ok(out)
    }

    fn write(&mut self, addr: Addr, data: &[u8]) -> Result<(), VmemError> {
        for (i, &b) in data.iter().enumerate() {
            let at = addr.0 + i as u64;
            // A fault names the first byte of the page the write reached.
            let fault = if at / PAGE_SIZE == addr.page().0 {
                addr
            } else {
                Addr(at)
            };
            let page = self
                .backing
                .get_mut(&(at / PAGE_SIZE))
                .ok_or(VmemError::NotBacked { addr: fault })?;
            page[(at % PAGE_SIZE) as usize] = b;
        }
        Ok(())
    }
}

fn arb_rights(rng: &mut XorShift) -> Access {
    Access::from_bits_truncate(rng.range_u8(0, 8))
}

fn arb_pages(rng: &mut XorShift, base: Addr) -> VirtRange {
    let first = rng.range_u64(0, TOUCHED_PAGES);
    let n = rng.range_u64(1, 5);
    VirtRange::new(base + first * PAGE_SIZE, n * PAGE_SIZE)
}

fn arb_span(rng: &mut XorShift, base: Addr) -> (Addr, u64) {
    let at = base + rng.range_u64(0, TOUCHED_PAGES * PAGE_SIZE);
    let len = *rng.choose(&[0, 1, 8, 8, 64, PAGE_SIZE, 2 * PAGE_SIZE + 3]);
    (at, len)
}

enclosure_support::props! {
    /// Whatever is written is read back verbatim, at any alignment.
    fn write_then_read_roundtrips(rng) {
        let offset = rng.range_u64(0, 3 * PAGE_SIZE);
        let len = rng.range_usize(0, 2048);
        let data = rng.bytes(len);
        let mut space = AddressSpace::new();
        let region = space.alloc(4 * PAGE_SIZE).unwrap();
        let at = region.start() + offset;
        space.write(at, &data).unwrap();
        assert_eq!(space.read_vec(at, data.len() as u64).unwrap(), data);
    }

    /// Distinct allocations never overlap.
    fn allocations_are_disjoint(rng) {
        let count = rng.range_usize(1, 16);
        let mut space = AddressSpace::new();
        let mut regions: Vec<VirtRange> = Vec::new();
        for _ in 0..count {
            let size = rng.range_u64(1, 8 * PAGE_SIZE);
            let r = space.alloc(size).unwrap();
            for prev in &regions {
                assert!(!r.overlaps(prev), "{r} overlaps {prev}");
            }
            regions.push(r);
        }
    }

    /// Access set algebra: union contains both operands; intersection is
    /// contained in both; subtraction removes exactly the operand.
    fn access_set_algebra(rng) {
        let a = Access::from_bits_truncate(rng.range_u8(0, 8));
        let b = Access::from_bits_truncate(rng.range_u8(0, 8));
        assert!((a | b).contains(a));
        assert!((a | b).contains(b));
        assert!(a.contains(a & b));
        assert!(b.contains(a & b));
        assert!(!(a - b).intersection(b).bits() != 0 || (a - b).intersection(b).is_none());
        assert!(a.is_subset_of(a | b));
    }

    /// A page-table check succeeds exactly when every touched page grants the
    /// needed rights.
    fn table_check_matches_per_page_rights(rng) {
        let needed = Access::from_bits_truncate(rng.range_u8(0, 8));
        let granted = Access::from_bits_truncate(rng.range_u8(0, 8));
        let offset = rng.range_u64(0, PAGE_SIZE);
        let len = rng.range_u64(1, 2 * PAGE_SIZE);
        let mut table = PageTable::new("prop");
        let region = VirtRange::new(Addr(0x40_0000), 4 * PAGE_SIZE);
        table.map_range(region, granted, 0);
        let ok = table.check(Addr(0x40_0000) + offset, len, needed).is_ok();
        assert_eq!(ok, granted.contains(needed));
    }

    /// Rights parsing round-trips through Display for every valid set.
    fn access_display_parse_roundtrip(rng) {
        let acc = Access::from_bits_truncate(rng.range_u8(0, 8));
        let parsed: Access = acc.to_string().parse().unwrap();
        assert_eq!(parsed, acc);
    }

    /// `VirtRange::pages` yields exactly `page_len` pages covering the range.
    fn range_pages_cover_range(rng) {
        let start = rng.range_u64(0, 1 << 30);
        let len = rng.range_u64(1, 16 * PAGE_SIZE);
        let r = VirtRange::new(Addr(start), len);
        let pages: Vec<_> = r.pages().collect();
        assert_eq!(pages.len() as u64, r.page_len());
        assert_eq!(pages.first().copied().unwrap(), Addr(start).page());
        assert_eq!(pages.last().copied().unwrap(), Addr(start + len - 1).page());
    }

    /// `PageTable` + `AddressSpace` agree with a `BTreeMap` reference
    /// model over random map/unmap/protect/retag/present/release
    /// sequences: every check, read and write returns the same result
    /// and the same `VmemError`, table name included.
    fn table_and_space_match_a_btreemap_model(rng, cases = 48) {
        let mut space = AddressSpace::new();
        let window = space.alloc(WINDOW_PAGES * PAGE_SIZE).unwrap();
        let base = window.start();
        let mut table = PageTable::new("prop-env");
        let mut model = Model {
            name: "prop-env",
            entries: BTreeMap::new(),
            backing: window.pages().map(|p| (p.0, vec![0; PAGE_SIZE as usize])).collect(),
        };
        for step in 0..rng.range_usize(20, 120) {
            match rng.range_u8(0, 9) {
                0 => {
                    let (range, rights, key) = (arb_pages(rng, base), arb_rights(rng), rng.range_u8(0, 16));
                    table.map_range(range, rights, key);
                    for p in range.pages() {
                        model.entries.insert(p.0, PageEntry::new(rights, key));
                    }
                }
                1 => {
                    let range = arb_pages(rng, base);
                    table.unmap_range(range);
                    for p in range.pages() {
                        model.entries.remove(&p.0);
                    }
                }
                2 => {
                    let (range, rights) = (arb_pages(rng, base), arb_rights(rng));
                    let want = model.update(range, "protect", |e| e.rights = rights);
                    assert_eq!(table.protect_range(range, rights), want, "step {step}");
                }
                3 => {
                    let (range, key) = (arb_pages(rng, base), rng.range_u8(0, 16));
                    let want = model.update(range, "retag", |e| e.key = key);
                    assert_eq!(table.retag_range(range, key), want, "step {step}");
                }
                4 => {
                    let (range, present) = (arb_pages(rng, base), rng.next_bool());
                    let want = model.update(range, "set_present", |e| e.present = present);
                    assert_eq!(table.set_present(range, present), want, "step {step}");
                }
                5 => {
                    let (at, len) = arb_span(rng, base);
                    let needed = arb_rights(rng);
                    let denied = (rng.next_u64() & 0xffff) as u16;
                    let got = table.check_keyed(at, len, needed, |k| denied & (1 << k) == 0);
                    assert_eq!(got, model.check_keyed(at, len, needed, denied), "step {step}");
                    assert_eq!(
                        table.check(at, len, needed),
                        model.check_keyed(at, len, needed, 0).map(|_| ()),
                        "step {step}"
                    );
                }
                6 => {
                    let (at, len) = arb_span(rng, base);
                    assert_eq!(space.read_vec(at, len), model.read(at, len), "step {step}");
                }
                7 => {
                    let (at, len) = arb_span(rng, base);
                    let data = rng.bytes(len as usize);
                    assert_eq!(space.write(at, &data), model.write(at, &data), "step {step}");
                }
                _ => {
                    let range = arb_pages(rng, base);
                    space.release(range).unwrap();
                    for p in range.pages() {
                        model.backing.remove(&p.0);
                    }
                }
            }
        }
        assert_eq!(table.mapped_pages(), model.entries.len());
        assert_eq!(space.page_len(), model.backing.len());
        assert_eq!(space.allocated_bytes(), model.backing.len() as u64 * PAGE_SIZE);
        for p in 0..TOUCHED_PAGES + 1 {
            let at = base + p * PAGE_SIZE;
            assert_eq!(table.entry(at), model.entries.get(&at.page().0));
        }
    }
}

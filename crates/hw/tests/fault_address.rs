//! Every backend reports a fault in a multi-page access at the page that
//! denied it: the access's own address while still on its first page,
//! the faulting page's base after that.

use enclosure_hw::mpk::Pkru;
use enclosure_hw::proc::ProcSandbox;
use enclosure_hw::vtx::{EnvId, Vm};
use enclosure_hw::{Clock, CostModel, Cpu};
use enclosure_vmem::{Access, Addr, PageTable, VirtRange, VmemError, PAGE_SIZE};

const BASE: u64 = 0x40_000;
/// An 8-byte access straddling the boundary between the two pages.
const START: Addr = Addr(BASE + PAGE_SIZE - 4);
const SECOND_PAGE: Addr = Addr(BASE + PAGE_SIZE);

/// Page 1 read-write with key 1, page 2 read-only with key 2.
fn split_table(name: &str) -> PageTable {
    let mut t = PageTable::new(name);
    t.map_range(VirtRange::new(Addr(BASE), PAGE_SIZE), Access::RW, 1);
    t.map_range(VirtRange::new(SECOND_PAGE, PAGE_SIZE), Access::R, 2);
    t
}

fn rights_fault(table: &str) -> VmemError {
    VmemError::ProtectionFault {
        addr: SECOND_PAGE,
        needed: Access::W,
        granted: Access::R,
        table: table.into(),
    }
}

#[test]
fn mpk_reports_the_denying_page() {
    let table = split_table("mpk-shared");
    let mut cpu = Cpu::new(Clock::new(CostModel::free()));
    assert_eq!(
        cpu.check_mpk(&table, START, 8, Access::W),
        Err(rights_fault("mpk-shared"))
    );
    // Page rights allow the read; the PKRU denies key 2 on page 2.
    let mut pkru = Pkru::allow_all();
    pkru.set_key_rights(2, Access::NONE);
    cpu.write_pkru(pkru);
    assert_eq!(
        cpu.check_mpk(&table, START, 8, Access::R),
        Err(VmemError::PkeyFault {
            addr: SECOND_PAGE,
            key: 2,
            needed: Access::R,
            pkru: pkru.bits(),
            table: "mpk-shared".into(),
        })
    );
}

#[test]
fn vtx_reports_the_denying_page() {
    let mut vm = Vm::new(PageTable::new("trusted"));
    vm.install(EnvId(1), split_table("enc"));
    vm.switch(EnvId(1), &mut Clock::default()).unwrap();
    assert_eq!(vm.check(START, 8, Access::W), Err(rights_fault("enc")));
}

#[test]
fn proc_reports_the_denying_page() {
    let mut sandbox = ProcSandbox::new(PageTable::new("supervisor"));
    sandbox.install(EnvId(1), split_table("child"));
    sandbox.switch(EnvId(1), &mut Clock::default()).unwrap();
    assert_eq!(
        sandbox.check(START, 8, Access::W),
        Err(rights_fault("child"))
    );
}

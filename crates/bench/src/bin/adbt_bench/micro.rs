//! Micro-benchmarks for the substrate primitives whose costs drive the
//! schemes' trade-offs: the store-test hash table, the stop-the-world
//! barrier, software-HTM transactions, guest memory CAS, the assembler,
//! and one end-to-end LL/SC round trip per scheme.
//!
//! Each benchmark runs in batches against a monotonic clock and reports
//! its fastest batch in ns/op; the workspace builds air-gapped, without
//! a benchmarking crate.

use adbt::engine::{ExclusiveBarrier, StoreTestTable};
use adbt::mmu::{GuestMemory, Width};
use adbt::{MachineBuilder, SchemeKind};
use adbt_bench::{time_best, Args, Table};
use adbt_htm::HtmDomain;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `batch` iterations, after one warm-up batch, and adds
/// the fastest of `reps` batches to `table` in ns/op.
fn bench(table: &mut Table, name: &str, batch: u32, reps: u32, mut f: impl FnMut()) {
    for _ in 0..batch {
        f();
    }
    let (best, ()) = time_best(reps, || {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        (start.elapsed(), ())
    });
    let ns = best.as_nanos() as f64 / batch as f64;
    table.row([
        ("bench", name.to_string()),
        ("ns_per_op", format!("{ns:.1}")),
    ]);
}

fn bench_store_test_table(table: &mut Table) {
    let htable = StoreTestTable::new();
    let mut addr = 0u32;
    bench(table, "store_test_table/set", 100_000, 5, || {
        addr = addr.wrapping_add(4);
        htable.set(black_box(addr), 1);
    });
    htable.set(0x1000, 7);
    bench(table, "store_test_table/get", 100_000, 5, || {
        black_box(htable.get(black_box(0x1000)));
    });
    htable.set(0x2000, 3);
    bench(table, "store_test_table/lock_unlock", 100_000, 5, || {
        assert!(htable.try_lock(black_box(0x2000), 3));
        htable.unlock(0x2000, 3);
    });
}

fn bench_exclusive(table: &mut Table) {
    let barrier = ExclusiveBarrier::new();
    barrier.register();
    bench(table, "exclusive_section_uncontended", 50_000, 5, || {
        let waited = barrier.start_exclusive().expect("not halted");
        barrier.end_exclusive();
        black_box(waited);
    });
    barrier.unregister();
}

fn bench_htm(table: &mut Table) {
    let mem = GuestMemory::new(1 << 16);
    let domain = HtmDomain::default();
    bench(table, "htm/txn_rmw_commit", 50_000, 5, || {
        let mut txn = domain.begin();
        let v = txn.load_word(&mem, 0x100).unwrap();
        txn.store_word(0x100, v.wrapping_add(1)).unwrap();
        txn.commit(&mem).unwrap();
    });
    bench(table, "htm/txn_conflict_abort", 50_000, 5, || {
        let mut txn = domain.begin();
        let _ = txn.load_word(&mem, 0x200).unwrap();
        domain.notify_plain_store(0x200);
        txn.store_word(0x204, 1).unwrap();
        assert!(txn.commit(&mem).is_err());
    });
    bench(table, "htm/consistent_load", 100_000, 5, || {
        black_box(domain.consistent_load(&mem, black_box(0x300), Width::Word));
    });
}

fn bench_guest_memory(table: &mut Table) {
    let mem = GuestMemory::new(1 << 16);
    bench(table, "guest_memory/load_word", 100_000, 5, || {
        black_box(mem.load(black_box(0x40), Width::Word));
    });
    bench(table, "guest_memory/store_word", 100_000, 5, || {
        mem.store(black_box(0x40), Width::Word, black_box(7));
    });
    mem.store(0x80, Width::Word, 0);
    bench(table, "guest_memory/cas_word_success", 100_000, 5, || {
        let old = mem.load(0x80, Width::Word);
        let _ = black_box(mem.cas_word(0x80, old, old.wrapping_add(1)));
    });
}

fn bench_assembler(table: &mut Table) {
    let source = r#"
    retry:
        ldrex r1, [r0]
        add   r1, r1, #1
        strex r2, r1, [r0]
        cmp   r2, #0
        bne   retry
        mov   r0, #0
        svc   #0
    "#;
    bench(table, "assemble_llsc_loop", 5_000, 5, || {
        black_box(adbt::assemble(black_box(source), 0x1000).unwrap());
    });
}

/// End-to-end: one single-threaded guest run of a 1000-iteration LL/SC
/// counter loop per scheme — the per-SC cost difference between schemes
/// at zero contention.
fn bench_scheme_sc_roundtrip(table: &mut Table) {
    let program = r#"
        mov32 r5, counter
        mov32 r6, #1000
    loop:
    retry:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        subs  r6, r6, #1
        bne   loop
        mov   r0, #0
        svc   #0
        .align 4096
    counter:
        .word 0
    "#;
    for kind in SchemeKind::ALL {
        let name = format!("sc_roundtrip_1000/{}", kind.name());
        bench(table, &name, 20, 3, || {
            let mut machine = MachineBuilder::new(kind).memory(1 << 20).build().unwrap();
            machine.load_asm(program, 0x1_0000).unwrap();
            let report = machine.run(1, 0x1_0000);
            assert!(report.all_ok());
            black_box(report);
        });
    }
}

/// Runs every micro-benchmark.
pub fn micro(args: &Args) {
    let mut table = Table::default();
    bench_store_test_table(&mut table);
    bench_exclusive(&mut table);
    bench_htm(&mut table);
    bench_guest_memory(&mut table);
    bench_assembler(&mut table);
    bench_scheme_sc_roundtrip(&mut table);
    table.emit(args);
}

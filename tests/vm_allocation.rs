//! Allocation discipline of the register-frame VM, proved two ways:
//!
//! 1. **Counter-level** — on a call-heavy program the frame pool reaches a
//!    100% hit rate after warmup: every steady-state CALL reuses recycled
//!    register capacity instead of growing the file.
//! 2. **Allocator-level** — with a counting global allocator installed,
//!    straight-line VM execution performs the same number of allocation
//!    events regardless of iteration count: all allocation is setup, none
//!    is per-iteration. The counter is per thread, so tests running in
//!    parallel under the default harness do not disturb the figure.

use bench::harness::alloc_counter::{self, CountingAlloc};
use fruntime::{compile, run, run_compiled, Engine, ExecOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn vm_opts() -> ExecOptions {
    ExecOptions {
        engine: Engine::Bytecode,
        ..Default::default()
    }
}

#[test]
fn frame_pool_reaches_full_hit_rate_after_warmup() {
    // Two-deep call chain driven 2000 times: 4000 CALL frames, all but
    // the warmup pushes landing in recycled register capacity.
    let src = "      PROGRAM MAIN
      COMMON /ACC/ T
      T = 0.0
      DO I = 1, 2000
        CALL STEP
      ENDDO
      WRITE(6,*) T
      END
      SUBROUTINE STEP
      COMMON /ACC/ T
      DIMENSION W(8)
      DO J = 1, 8
        W(J) = J*1.0
      ENDDO
      CALL LEAF(W, 8)
      RETURN
      END
      SUBROUTINE LEAF(W, N)
      DIMENSION W(N)
      COMMON /ACC/ T
      DO J = 1, N
        T = T + W(J)
      ENDDO
      RETURN
      END
";
    let p = fir::parse(src).unwrap();
    let r = run(&p, &vm_opts()).unwrap();
    assert_eq!(r.vm.calls, 4000);
    assert_eq!(r.vm.peak_call_depth, 2);
    // Every frame push (4000 calls + MAIN) is either a pool hit or a
    // miss; after the register file grows to steady-state shape, every
    // push is a hit — warmup is at most one miss per chain depth plus
    // MAIN itself.
    assert_eq!(r.vm.pool_hits + r.vm.pool_misses, r.vm.calls + 1);
    assert!(
        r.vm.pool_misses <= 3,
        "frame pool failed to recycle: {:?}",
        r.vm
    );
    assert!(
        r.vm.warm_allocs <= 2,
        "steady-state frame pushes allocated: {:?}",
        r.vm
    );
    assert!(r.vm.insns_retired > 0);
    // The workload is REAL arithmetic over loads/stores — the typed
    // bodies must be in play (fused retirements only exist there), and
    // the pool discipline above must hold *with* typed frames active.
    assert!(
        r.vm.fused_insns > 0,
        "typed bodies not executing: {:?}",
        r.vm
    );
}

#[test]
fn typed_register_frames_keep_pool_invariants_while_fusing() {
    // Call-heavy stencil: every frame push binds typed register banks,
    // and the inner loops retire fused Load/Bin/Store superwords. The
    // frame-pool accounting must be indistinguishable from the
    // stack-body era: one push per CALL plus MAIN, all steady-state
    // pushes recycled.
    let src = "      PROGRAM MAIN
      COMMON /ACC/ T
      DIMENSION A(64)
      DO J = 1, 64
        A(J) = J*0.25
      ENDDO
      T = 0.0
      DO I = 1, 500
        CALL SWEEP(A, 64)
      ENDDO
      WRITE(6,*) T
      END
      SUBROUTINE SWEEP(A, N)
      DIMENSION A(N)
      COMMON /ACC/ T
      DO J = 2, N - 1
        A(J) = A(J-1)*0.5 + A(J+1)*0.5
        T = T + A(J)
      ENDDO
      RETURN
      END
";
    let p = fir::parse(src).unwrap();
    let r = run(&p, &vm_opts()).unwrap();
    assert_eq!(r.vm.calls, 500);
    assert_eq!(r.vm.pool_hits + r.vm.pool_misses, r.vm.calls + 1);
    assert!(
        r.vm.pool_misses <= 2,
        "typed frames defeated pooling: {:?}",
        r.vm
    );
    assert!(
        r.vm.warm_allocs <= 2,
        "typed frame pushes allocated: {:?}",
        r.vm
    );
    assert!(
        r.vm.fused_insns > 0,
        "stencil produced no fused retirements"
    );
    // The retire histogram partitions every *typed* retirement; the only
    // unclassed instructions are the stack-engine frame-build snippets
    // (`DIMENSION A(N)` extent evaluation, a couple per frame) — if the
    // gap grows past that, typed bodies are silently falling back.
    let classed: u64 = r.vm.class_retired.iter().sum();
    assert!(classed <= r.vm.insns_retired, "histogram overcounts");
    assert!(
        r.vm.insns_retired - classed <= 4 * (r.vm.calls + 1),
        "untyped execution beyond frame-build extents: {:?}",
        r.vm
    );
}

#[test]
fn straight_line_execution_allocates_nothing_per_iteration() {
    // Same program shape at two iteration counts: if the hot loop
    // allocated anything per iteration, the 10x-longer run would perform
    // more allocation events. Equal counts prove the steady state is
    // allocation-free (I/O volume is identical: one WRITE outside the
    // loop in both).
    let program_with = |iters: u64| {
        let src = format!(
            "      PROGRAM MAIN
      COMMON /OUT/ S
      DIMENSION A(32)
      DO J = 1, 32
        A(J) = J*0.5
      ENDDO
      S = 0.0
      DO I = 1, {iters}
        K = MOD(I, 32) + 1
        A(K) = A(K)*1.0001 + 0.5
        S = S + A(K)
      ENDDO
      WRITE(6,*) S
      END
"
        );
        fir::parse(&src).unwrap()
    };

    let opts = vm_opts();
    let run_counted = |iters: u64| -> u64 {
        let compiled = compile(&program_with(iters));
        // Warm the process (lazy runtime init, etc.) outside the count.
        run_compiled(&compiled, &opts).unwrap();
        let (res, allocs) = alloc_counter::count(|| run_compiled(&compiled, &opts).unwrap());
        assert!(res.vm.insns_retired > iters);
        // Typed registers are live (the loop body's REAL arithmetic
        // fuses) and the zero-allocation claim below covers them.
        assert!(res.vm.fused_insns > 0, "typed body not executing");
        allocs
    };

    let small = run_counted(2_000);
    let large = run_counted(20_000);
    assert_eq!(
        small, large,
        "VM execution allocates per iteration: {small} allocs at 2k iters vs {large} at 20k"
    );
}

#[test]
fn count_ignores_allocations_made_on_other_threads() {
    // The metered region only waits while a second thread allocates; a
    // process-global counter would charge those allocations to it (the
    // way sibling tests once leaked into the figure above).
    use std::sync::{Arc, Barrier};
    const BOXES: u64 = 1_000;
    let barrier = Arc::new(Barrier::new(2));
    let other = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            // Warm-up rendezvous: any lazy set-up inside the barrier's
            // lock happens before the metered window opens.
            barrier.wait();
            barrier.wait();
            let (boxes, n) = alloc_counter::count(|| (0..BOXES).map(Box::new).collect::<Vec<_>>());
            std::hint::black_box(boxes);
            barrier.wait();
            n
        })
    };
    barrier.wait();
    let ((), own) = alloc_counter::count(|| {
        barrier.wait();
        barrier.wait();
    });
    let theirs = other.join().unwrap();
    assert!(
        theirs >= BOXES,
        "the second thread's allocations went uncounted: {theirs}"
    );
    assert_eq!(
        own, 0,
        "count charged another thread's allocations to the caller"
    );
}

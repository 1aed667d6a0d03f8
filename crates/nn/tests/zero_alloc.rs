//! The arena path's zero-allocation claim, enforced by a counting
//! global allocator: once the scratch arena is warm, a full fast-path
//! forward through a conv/bn/relu stack plus linear head performs no
//! heap allocation at all (telemetry silent, which is the deployed
//! steady state — spans are inert atomic loads when nothing captures).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mandipass_nn::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn paper_branch() -> Sequential {
    Sequential::new(vec![
        Box::new(Conv2d::new(1, 8, (3, 3), (1, 2), (1, 1), 1)),
        Box::new(BatchNorm2d::new(8)),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(8, 16, (3, 3), (1, 2), (1, 1), 2)),
        Box::new(BatchNorm2d::new(16)),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(16, 32, (3, 3), (1, 2), (1, 1), 3)),
        Box::new(BatchNorm2d::new(32)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
    ])
}

#[test]
fn warm_arena_forward_allocates_nothing() {
    let branch = paper_branch();
    let head = Linear::new(32 * 6 * 4, 64, 9);
    let act = Sigmoid::new();

    let input: Vec<f32> = (0..6 * 30).map(|i| ((i as f32) * 0.37).sin()).collect();
    let mut ctx = InferCtx::new();
    let run = |ctx: &mut InferCtx| {
        let mut buf = ctx.acquire(input.len());
        buf.copy_from_slice(&input);
        let (feat, fshape) = branch.infer(buf, Shape::d4(1, 1, 6, 30), ctx);
        let (pre, pshape) = head.infer(feat, fshape, ctx);
        let (emb, _) = act.infer(pre, pshape, ctx);
        let sum: f32 = emb.iter().sum();
        ctx.release(emb);
        sum
    };

    // Warm-up: the pool grows to the network's working set and the
    // head packs its weights.
    let warm = run(&mut ctx);
    let _ = run(&mut ctx);
    ctx.reset_growth();

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut check = 0.0f32;
    for _ in 0..10 {
        check += run(&mut ctx);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state fast path hit the heap allocator"
    );
    assert_eq!(
        ctx.stats().growth_events,
        0,
        "steady-state fast path grew the arena"
    );
    assert!((check - 10.0 * warm).abs() < 1e-3, "outputs drifted");
    assert!(ctx.stats().high_water_bytes > 0);
}

//! Heap-allocation counts of the serving hot paths, measured by a counting
//! global allocator: a steady-state cold V/F switch of a capacity-1 model
//! bank is a pure gather into the evicted variant's buffers, and
//! steady-state banked inference reuses its `InferScratch`. Both must make
//! zero heap allocations. The counter is per thread, so the test harness's
//! other threads never disturb a measurement.

use rt3_hardware::MemoryModel;
use rt3_pruning::{
    block_prune_model, generate_pattern_space, BlockPruningConfig, PatternSpace, PatternSpaceConfig,
};
use rt3_runtime::{InferScratch, ModelBank};
use rt3_transformer::{MaskSet, TransformerConfig, TransformerLm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees can run after its locals are gone
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn setup() -> (TransformerLm, MaskSet, PatternSpace) {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 5);
    let backbone = block_prune_model(&model, &BlockPruningConfig::default());
    let space = generate_pattern_space(
        &model,
        &backbone,
        &[0.4, 0.6, 0.8],
        &PatternSpaceConfig {
            pattern_size: 4,
            patterns_per_set: 2,
            sample_fraction: 0.5,
            seed: 2,
        },
    );
    (model, backbone, space)
}

/// Every ordered level pair `(from, to)` as consecutive accesses.
fn every_ordered_pair(levels: usize) -> Vec<usize> {
    (0..levels)
        .flat_map(|from| {
            (0..levels)
                .filter(move |&to| to != from)
                .flat_map(move |to| [from, to])
        })
        .collect()
}

/// Walks `walk` once, asserting after every `get` that the level is
/// resident and at most `capacity` levels are; returns the allocations the
/// `get`s made.
fn cycle(bank: &mut ModelBank<'_, TransformerLm>, walk: &[usize], capacity: usize) -> u64 {
    let mut allocations = 0;
    for &level in walk {
        allocations += allocations_in(|| {
            std::hint::black_box(bank.get(level));
        });
        let resident = (0..bank.levels()).filter(|&l| bank.is_resident(l)).count();
        assert!(bank.is_resident(level));
        assert!(
            resident <= capacity,
            "{resident} levels resident at capacity {capacity}"
        );
    }
    allocations
}

#[test]
fn steady_state_capacity_one_switches_do_not_allocate() {
    let (model, backbone, space) = setup();
    for capacity in 1..=3 {
        let mut bank = ModelBank::new(
            &model,
            backbone.clone(),
            &space,
            &[0, 1, 2],
            MemoryModel::odroid_xu3(),
            capacity,
        );
        let walk = every_ordered_pair(bank.levels());
        // the warm cycle scores every level once and grows the arenas
        let warm = cycle(&mut bank, &walk, capacity);
        assert!(warm > 0, "the counter must see the first builds");
        let before = bank.stats();
        let steady = cycle(&mut bank, &walk, capacity);
        if capacity == 1 {
            let after = bank.stats();
            assert!(
                after.builds - before.builds >= 6,
                "every ordered pair must switch cold"
            );
            assert_eq!(steady, 0, "a steady-state capacity-1 switch allocated");
        }
    }
}

#[test]
fn steady_state_inference_does_not_allocate() {
    let (model, backbone, space) = setup();
    let mut bank = ModelBank::new(
        &model,
        backbone,
        &space,
        &[0, 1, 2],
        MemoryModel::odroid_xu3(),
        3,
    );
    let mut scratch = InferScratch::new();
    for level in 0..bank.levels() {
        let banked = bank.get(level);
        // the widest batch sizes the buffers for every narrower one
        banked.infer_with(4, &mut scratch);
        for width in 1..=4 {
            let allocations = allocations_in(|| {
                std::hint::black_box(banked.infer_with(width, &mut scratch));
            });
            assert_eq!(allocations, 0, "level {level} width {width} allocated");
        }
    }
}

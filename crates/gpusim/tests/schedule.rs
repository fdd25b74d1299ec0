//! Scheduler-, layout-, and fan-out-equivalence regressions.
//!
//! The engine defines one scheduling total order — issue the runnable
//! warp minimizing `(ready_cycle, warp_id)` lexicographically — and two
//! implementations of it (the reference linear scan, whose strict
//! `r < br` comparison keeps the first index on ties, and the winner
//! tree over hardware warp slots keyed on exactly that pair).
//! Orthogonally it defines two lane-state memory layouts — the
//! reference array-of-structs and the pooled structure-of-arrays
//! arenas — that execute the same predecoded program. These tests pin
//! that every (scheduler, layout, parallelism) configuration is
//! bit-identical: same cycles, same stall buckets, same per-SM rollups,
//! same global memory bytes, same error variant at the same cycle.

use orion_alloc::realize::{allocate, AllocOptions, SlotBudget};
use orion_gpusim::device::{CacheConfig, DeviceSpec};
use orion_gpusim::exec::{Launch, SimError};
use orion_gpusim::sim::{run_launch_opts, LaunchOptions, RunResult};
use orion_gpusim::{LaneLayout, Scheduler};
use orion_kir::builder::{build_counted_loop, FunctionBuilder};
use orion_kir::function::Module;
use orion_kir::inst::{Cmp, Inst, Opcode, Operand};
use orion_kir::mir::MModule;
use orion_kir::types::{MemSpace, PredReg, SpecialReg, Width};

fn compile(m: &Module, regs: u16, smem: u16) -> MModule {
    allocate(m, SlotBudget { reg_slots: regs, smem_slots: smem }, &AllocOptions::default())
        .unwrap()
        .machine
}

/// out[gid] = f(in[gid]) with dependent FMAs (latency-bound warps whose
/// ready times interleave — plenty of scheduling ties to resolve).
fn streaming_kernel(flops: usize) -> Module {
    let mut b = FunctionBuilder::kernel("stream");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let mut acc = x;
    for _ in 0..flops {
        acc = b.ffma(acc, x, Operand::Imm(0x3f80_0000));
    }
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, acc, 0);
    Module::new(b.finish())
}

/// Shared-memory exchange across a barrier (exercises barrier release,
/// where a whole CTA's warps re-enter the ready queue at once).
fn barrier_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("barrier");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let saddr = b.imul(tid, Operand::Imm(4));
    b.st(MemSpace::Shared, Width::W32, saddr, tid, 0);
    b.bar();
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let last = b.isub(nt, Operand::Imm(1));
    let ridx = b.isub(last, tid);
    let raddr = b.imul(ridx, Operand::Imm(4));
    let v = b.ld(MemSpace::Shared, Width::W32, raddr, 0);
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let gid = b.imad(cta, nt, tid);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    b.st(MemSpace::Global, Width::W32, out, v, 0);
    let mut m = Module::new(b.finish());
    m.user_smem_bytes = 4 * 128;
    m
}

/// Full-warp divergent branch with unbalanced arms: odd/even lanes take
/// different paths (3x+1 vs x/2), reconverging at the join — exercises
/// the SIMT stack and the packed-predicate branch evaluation.
fn divergent_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("diverge");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let bit = b.and(x, Operand::Imm(1));
    b.isetp(Cmp::Ne, bit, Operand::Imm(0), PredReg(0));
    let odd = b.new_block();
    let even = b.new_block();
    let join = b.new_block();
    b.branch(PredReg(0), false, odd, even);
    b.switch_to(odd);
    let three = b.imad(x, Operand::Imm(3), Operand::Imm(1));
    b.jump(join);
    b.switch_to(even);
    let half = b.shr(x, Operand::Imm(1));
    b.jump(join);
    b.switch_to(join);
    let res = b.sel(PredReg(0), three, half);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, res, 0);
    b.exit();
    Module::new(b.finish())
}

/// Worst-case shared-memory banking: every lane of a warp hits the same
/// bank at a distinct word (`word = lane*32 + warp`), a 32-way conflict
/// on store and load — exercises the conflict-degree serialization and
/// its issue-cost clamp. Words are distinct per thread, so there are no
/// cross-warp write races to make the result order-dependent.
fn bank_conflict_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("conflict");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let lane = b.mov(Operand::Special(SpecialReg::LaneId));
    let warp = b.mov(Operand::Special(SpecialReg::WarpId));
    let word = b.imad(lane, Operand::Imm(32), warp);
    let saddr = b.imul(word, Operand::Imm(4));
    b.st(MemSpace::Shared, Width::W32, saddr, tid, 0);
    b.bar();
    let v = b.ld(MemSpace::Shared, Width::W32, saddr, 0);
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    b.st(MemSpace::Global, Width::W32, out, v, 0);
    let mut m = Module::new(b.finish());
    m.user_smem_bytes = 4 * 32 * 32;
    m
}

/// `out[gid] = fold(in[gid])` over a loop whose trip count depends on
/// `%ctaid / 8`, so the CTAs one SM of an 8-SM device holds retire out
/// of admission order: a later CTA's replacement takes over its slot
/// range while older CTAs are still resident. Trip counts per SM run
/// 1, 11, 5, 15, 9, 3, 13, 7, 1, …
fn ctaid_trip_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("trips");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    let round = b.shr(cta, Operand::Imm(3));
    let mixed = b.imul(round, Operand::Imm(5));
    let r = b.and(mixed, Operand::Imm(7));
    let trips = b.imad(r, Operand::Imm(2), Operand::Imm(1));
    let acc = b.mov(x);
    build_counted_loop(&mut b, Operand::Imm(0), trips, 1, PredReg(0), |b, _| {
        let y = b.ld(MemSpace::Global, Width::W32, addr, 0);
        b.push(Inst::new(Opcode::IMad, Some(acc), vec![acc.into(), Operand::Imm(3), y.into()]));
    });
    let out = b.imad(gid, Operand::Imm(4), Operand::Param(1));
    b.st(MemSpace::Global, Width::W32, out, acc, 0);
    b.exit();
    let mut m = Module::new(b.finish());
    // 14 KiB of shared memory per block holds GTX680 residency to 3.
    m.user_smem_bytes = 14 * 1024;
    m
}

/// Warp 0 of every CTA waits at a `bar.sync` that the CTA's other warps
/// never reach: they run a dependent chain and exit. Warp 0 arrives
/// first, so no arrival finds every live warp waiting, and an exit
/// does not release a barrier — the launch can only end in deadlock.
fn stranded_barrier_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("stranded");
    let warp = b.mov(Operand::Special(SpecialReg::WarpId));
    b.isetp(Cmp::Eq, warp, Operand::Imm(0), PredReg(0));
    let waiter = b.new_block();
    let worker = b.new_block();
    b.branch(PredReg(0), false, waiter, worker);
    b.switch_to(waiter);
    b.bar();
    b.exit();
    b.switch_to(worker);
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let mut acc = b.ld(MemSpace::Global, Width::W32, addr, 0);
    for _ in 0..8 {
        acc = b.imad(acc, Operand::Imm(3), Operand::Imm(1));
    }
    b.st(MemSpace::Global, Width::W32, addr, acc, 0);
    b.exit();
    Module::new(b.finish())
}

fn run_with(
    dev: &DeviceSpec,
    machine: &MModule,
    launch: Launch,
    params: &[u32],
    bytes: usize,
    opts: LaunchOptions,
) -> (RunResult, Vec<u8>) {
    let mut global = vec![0u8; bytes];
    let r = run_launch_opts(dev, machine, launch, params, &mut global, opts).unwrap();
    (r, global)
}

/// The seed configuration every sweep compares against: the reference
/// scheduler and the reference lane layout on a single thread.
fn reference_opts() -> LaunchOptions {
    LaunchOptions {
        parallelism: 1,
        scheduler: Scheduler::LinearScan,
        layout: LaneLayout::Aos,
        ..LaunchOptions::default()
    }
}

/// Every (scheduler, layout, parallelism) combination must agree
/// bit-for-bit with the seed configuration (linear scan, AoS lanes,
/// single thread); returns the seed configuration's result.
fn assert_all_configs_identical(
    dev: &DeviceSpec,
    machine: &MModule,
    launch: Launch,
    params: &[u32],
    bytes: usize,
) -> RunResult {
    let (reference, ref_global) = run_with(dev, machine, launch, params, bytes, reference_opts());
    for scheduler in [Scheduler::LinearScan, Scheduler::WinnerTree] {
        for layout in [LaneLayout::Aos, LaneLayout::Soa] {
            for parallelism in [1u32, 2, 3, dev.num_sms] {
                let opts =
                    LaunchOptions { parallelism, scheduler, layout, ..LaunchOptions::default() };
                let (r, global) = run_with(dev, machine, launch, params, bytes, opts);
                assert_eq!(
                    r, reference,
                    "{scheduler:?}/{layout:?}/parallelism={parallelism} diverged from the seed \
                     configuration"
                );
                assert_eq!(
                    global, ref_global,
                    "{scheduler:?}/{layout:?}/parallelism={parallelism} produced different memory"
                );
            }
        }
    }
    reference
}

/// Every thread loads `buf[gid]` and stores a word back to it: the
/// loaded value, or 1 for thread `poke`. With `restore`, every thread
/// first stores 1 and then the loaded value, so the image ends as it
/// began although stores changed it on the way.
fn rewrite_kernel(poke: Option<i64>, restore: bool) -> Module {
    let mut b = FunctionBuilder::kernel("rewrite");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let addr = b.imad(gid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, addr, 0);
    if restore {
        b.st(MemSpace::Global, Width::W32, addr, Operand::Imm(1), 0);
    }
    let v = match poke {
        Some(g) => {
            b.isetp(Cmp::Eq, gid, Operand::Imm(g), PredReg(0));
            b.sel(PredReg(0), Operand::Imm(1), x)
        }
        None => x,
    };
    b.st(MemSpace::Global, Width::W32, addr, v, 0);
    Module::new(b.finish())
}

/// `RunResult::changed_global` says whether some store changed a byte
/// when it wrote, in every configuration alike: not for stores of the
/// values already present, yes for one changed byte, and yes for a
/// kernel whose later stores restore what its earlier ones changed.
#[test]
fn changed_global_is_identical_across_configs() {
    let dev = DeviceSpec::gtx680();
    let launch = Launch { grid: 24, block: 64 };
    let bytes = 4 * 24 * 64;
    let changed = |poke, restore| {
        let machine = compile(&rewrite_kernel(poke, restore), 16, 0);
        let r = assert_all_configs_identical(&dev, &machine, launch, &[0], bytes);
        let (_, global) = run_with(&dev, &machine, launch, &[0], bytes, reference_opts());
        (r.changed_global, global.iter().filter(|&&b| b != 0).count())
    };
    assert_eq!(changed(None, false), (false, 0), "rewriting every word changes nothing");
    assert_eq!(changed(Some(700), false), (true, 1), "one changed byte is a change");
    assert_eq!(changed(None, true), (true, 0), "a write-then-restore kernel still changed bytes");
}

#[test]
fn tree_and_scan_agree_on_latency_bound_kernel() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(6), 16, 0);
    let n = 256 * 24;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 24, block: 256 },
        &[0, 4 * n],
        (8 * n) as usize,
    );
}

#[test]
fn tree_and_scan_agree_across_barriers() {
    let dev = DeviceSpec::c2075();
    let machine = compile(&barrier_kernel(), 16, 0);
    let n = 128 * 6;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 6, block: 128 },
        &[0],
        (4 * n) as usize,
    );
}

#[test]
fn tree_and_scan_agree_under_register_pressure() {
    // A tight slot budget forces spills: local-memory (always "memory")
    // readiness competes with ALU readiness, stressing the tie-break
    // between `Wait` reasons that ride along with the ready time.
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(8), 4, 2);
    let n = 128 * 16;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 16, block: 128 },
        &[0, 4 * n],
        (8 * n) as usize,
    );
}

#[test]
fn errors_are_identical_across_fanout() {
    // The output region is truncated so the first out-of-bounds store
    // lands on SM 3 (block 3): whichever configuration runs it, the
    // reported error AND the memory state must match the serial engine
    // — SMs 0-2 ran to completion, SM 3's partial writes landed, and
    // SMs 4+ (which the serial engine never reached) left no trace.
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(2), 16, 0);
    let n = 256 * 16;
    let launch = Launch { grid: 16, block: 256 };
    let params = [0u32, 4 * n];
    // Inputs need bytes [0, 16384); outputs start at 16384, so 20000
    // bytes cuts the output region off inside block 3.
    assert_error_identical_across_fanout(&dev, &machine, launch, &params, vec![0u8; 20000]);
    // Over a patterned image, 31000 bytes cuts the output region off
    // inside block 14 (SM 6's second block): SMs 0-5 have dirtied output
    // pages 4-7 by then, and SM 7's stores into the same pages must
    // leave nothing.
    assert_error_identical_across_fanout(&dev, &machine, launch, &params, patterned(31000));
}

/// Every (scheduler, layout, parallelism) configuration must fail with
/// the serial engine's error and leave the same memory; returns that
/// error.
fn assert_error_identical_across_fanout(
    dev: &DeviceSpec,
    machine: &MModule,
    launch: Launch,
    params: &[u32],
    init: Vec<u8>,
) -> SimError {
    let base = LaunchOptions {
        parallelism: 1,
        scheduler: Scheduler::LinearScan,
        ..LaunchOptions::default()
    };
    let mut ref_global = init.clone();
    let reference =
        run_launch_opts(dev, machine, launch, params, &mut ref_global, base).unwrap_err();
    for scheduler in [Scheduler::LinearScan, Scheduler::WinnerTree] {
        for layout in [LaneLayout::Aos, LaneLayout::Soa] {
            for parallelism in [1u32, 2, 3, dev.num_sms] {
                let opts =
                    LaunchOptions { parallelism, scheduler, layout, ..LaunchOptions::default() };
                let mut g = init.clone();
                let err = run_launch_opts(dev, machine, launch, params, &mut g, opts).unwrap_err();
                assert_eq!(err, reference, "{scheduler:?}/{layout:?}/parallelism={parallelism}");
                assert_eq!(
                    g, ref_global,
                    "{scheduler:?}/{layout:?}/parallelism={parallelism} left different memory \
                     after the error"
                );
            }
        }
    }
    reference
}

#[test]
fn tree_and_scan_agree_when_ctas_retire_out_of_order() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&ctaid_trip_kernel(), 16, 0);
    // 12 blocks per SM against a residency of 3.
    let launch = Launch { grid: 12 * dev.num_sms, block: 64 };
    let n = launch.grid * launch.block;
    let (r, _) = run_with(&dev, &machine, launch, &[0, 4 * n], (8 * n) as usize, reference_opts());
    assert_eq!(r.occupancy.active_blocks, 3, "the kernel is sized for residency 3");
    assert!(r.per_sm.iter().all(|sm| sm.blocks == 12));
    assert_all_configs_identical(&dev, &machine, launch, &[0, 4 * n], (8 * n) as usize);
}

#[test]
fn stranded_barrier_deadlocks_in_every_configuration() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&stranded_barrier_kernel(), 16, 0);
    let launch = Launch { grid: 2 * dev.num_sms, block: 96 };
    let n = launch.grid * launch.block;
    let err = assert_error_identical_across_fanout(
        &dev,
        &machine,
        launch,
        &[0],
        patterned(4 * n as usize),
    );
    assert_eq!(err, SimError::Deadlock);
}

/// A global image whose byte pattern repeats every 251 bytes (prime, so
/// never in step with a page or a word), so copies and stores change
/// most bytes and, now and then, rewrite a byte with its own value
/// (which must not land).
fn patterned(bytes: usize) -> Vec<u8> {
    (0..bytes).map(|i| (i * 131 % 251) as u8).collect()
}

/// `dst[gid] = src[gid]` and `dst2[gid] = dst[gid]` in 128-bit words:
/// the second load reads the SM's own store back. With the region bases
/// 8 bytes short of a 4 KiB boundary, one word in 256 straddles a page.
fn wide_copy_kernel() -> Module {
    let mut b = FunctionBuilder::kernel("wide");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let cta = b.mov(Operand::Special(SpecialReg::CtaIdX));
    let nt = b.mov(Operand::Special(SpecialReg::NTidX));
    let gid = b.imad(cta, nt, tid);
    let src = b.imad(gid, Operand::Imm(16), Operand::Param(0));
    let quad = b.ld(MemSpace::Global, Width::W128, src, 0);
    let dst = b.imad(gid, Operand::Imm(16), Operand::Param(1));
    b.st(MemSpace::Global, Width::W128, dst, quad, 0);
    let back = b.ld(MemSpace::Global, Width::W128, dst, 0);
    let dst2 = b.imad(gid, Operand::Imm(16), Operand::Param(2));
    b.st(MemSpace::Global, Width::W128, dst2, back, 0);
    Module::new(b.finish())
}

/// Run `launches` in order over one buffer starting as `init`, each at
/// `parallelism`: every launch's outcome, and the memory afterwards.
fn run_sequence(
    dev: &DeviceSpec,
    machine: &MModule,
    launch: Launch,
    params: &[u32],
    init: &[u8],
    launches: &[LaunchOptions],
    parallelism: u32,
) -> (Vec<Result<RunResult, SimError>>, Vec<u8>) {
    let mut global = init.to_vec();
    let results = launches
        .iter()
        .map(|opts| {
            let opts = opts.with_parallelism(parallelism);
            run_launch_opts(dev, machine, launch, params, &mut global, opts)
        })
        .collect();
    (results, global)
}

/// The fan-out at two workers and at one per SM must reproduce the
/// serial engine: every launch's full `RunResult` (or error) and the
/// global memory afterwards.
fn assert_fanout_matches_serial(
    name: &str,
    dev: &DeviceSpec,
    machine: &MModule,
    launch: Launch,
    params: &[u32],
    init: &[u8],
    launches: &[LaunchOptions],
) {
    let (reference, ref_global) = run_sequence(dev, machine, launch, params, init, launches, 1);
    assert!(reference.iter().all(Result::is_ok), "{name}: serial run failed: {reference:?}");
    assert_ne!(ref_global, init, "{name}: the launches wrote nothing");
    for parallelism in [2u32, dev.num_sms] {
        let (r, global) = run_sequence(dev, machine, launch, params, init, launches, parallelism);
        assert_eq!(r, reference, "{name}/parallelism={parallelism} diverged from serial");
        assert_eq!(
            global, ref_global,
            "{name}/parallelism={parallelism} produced different memory"
        );
    }
}

#[test]
fn fanout_matches_serial_on_page_straddling_wide_accesses() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&wide_copy_kernel(), 16, 0);
    // 512 threads x 16 B = 8 KiB per region; each base sits 8 bytes
    // short of a page boundary, with a page of gap between regions.
    let launch = Launch { grid: 8, block: 64 };
    let (src, dst, dst2) = (4096 - 8, 4 * 4096 - 8, 7 * 4096 - 8);
    let init = patterned(dst2 as usize + 8192 + 8);
    assert_fanout_matches_serial(
        "wide",
        &dev,
        &machine,
        launch,
        &[src, dst, dst2],
        &init,
        &[LaunchOptions::default()],
    );
}

#[test]
fn fanout_matches_serial_on_images_not_page_sized() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(3), 16, 0);
    // 1 KiB (under one page), then 7680 B + 100 (1.9 pages): every
    // store into the last page is bounds-checked against the image.
    for launch in [Launch { grid: 4, block: 32 }, Launch { grid: 10, block: 96 }] {
        let n = launch.grid * launch.block;
        for bytes in [8 * n as usize, 8 * n as usize + 100] {
            assert_fanout_matches_serial(
                &format!("stream/{launch:?}/{bytes}B"),
                &dev,
                &machine,
                launch,
                &[0, 4 * n],
                &patterned(bytes),
                &[LaunchOptions::default()],
            );
        }
    }
}

#[test]
fn fanout_matches_serial_on_sliced_launches_with_cache_config() {
    // The launch sequence `Orion::tune_space` issues for a split arm:
    // consecutive CTA slices over one buffer, each with a per-launch
    // L1/shared split, so each slice starts from the previous slices'
    // writes.
    let dev = DeviceSpec::gtx680();
    let machine = compile(&streaming_kernel(4), 16, 0);
    let launch = Launch { grid: 24, block: 128 };
    let n = launch.grid * launch.block;
    let slices: Vec<LaunchOptions> = [
        (0, 8, CacheConfig::LargeCache),
        (8, 8, CacheConfig::LargeCache),
        (16, 8, CacheConfig::SmallCache),
    ]
    .into_iter()
    .map(|(first, count, cfg)| {
        LaunchOptions::default().with_cta_range(Some((first, count))).with_cache_config(cfg)
    })
    .collect();
    assert_fanout_matches_serial(
        "sliced",
        &dev,
        &machine,
        launch,
        &[0, 4 * n],
        &patterned(8 * n as usize),
        &slices,
    );
}

/// The layout-equivalence sweep of the SoA rebuild: three workloads
/// (latency-bound streaming, full-warp divergence, 32-way bank
/// conflicts) × two occupancy settings (native, and shared-memory
/// padding that halves residency) must be bit-identical between the SoA
/// engine and the LinearScan/AoS reference — cycles, per-SM stall
/// rollups, memory counters, and global memory bytes.
#[test]
fn soa_layout_is_bit_identical_across_workloads_and_occupancy() {
    let dev = DeviceSpec::gtx680();
    let n_threads = |launch: Launch| launch.grid * launch.block;
    let cases: [(&str, MModule, Launch, Vec<u32>, u32); 3] = {
        let stream_launch = Launch { grid: 16, block: 128 };
        let div_launch = Launch { grid: 12, block: 128 };
        let bank_launch = Launch { grid: 8, block: 128 };
        [
            (
                "stream",
                compile(&streaming_kernel(6), 16, 0),
                stream_launch,
                vec![0, 4 * n_threads(stream_launch)],
                8 * n_threads(stream_launch),
            ),
            (
                "diverge",
                compile(&divergent_kernel(), 16, 0),
                div_launch,
                vec![0, 4 * n_threads(div_launch)],
                8 * n_threads(div_launch),
            ),
            (
                "conflict",
                compile(&bank_conflict_kernel(), 16, 0),
                bank_launch,
                vec![0],
                4 * n_threads(bank_launch),
            ),
        ]
    };
    for (name, machine, launch, params, bytes) in &cases {
        for extra_smem in [0u32, 24 * 1024] {
            let base = reference_opts().with_extra_smem(extra_smem);
            let (reference, ref_global) =
                run_with(&dev, machine, *launch, params, *bytes as usize, base);
            for scheduler in [Scheduler::LinearScan, Scheduler::WinnerTree] {
                let opts = LaunchOptions {
                    scheduler,
                    layout: LaneLayout::Soa,
                    parallelism: 1,
                    ..LaunchOptions::default()
                }
                .with_extra_smem(extra_smem);
                let (r, global) = run_with(&dev, machine, *launch, params, *bytes as usize, opts);
                assert_eq!(
                    r, reference,
                    "{name}/smem+{extra_smem}/{scheduler:?}: SoA diverged from the AoS reference"
                );
                assert_eq!(
                    global, ref_global,
                    "{name}/smem+{extra_smem}/{scheduler:?}: SoA produced different memory"
                );
            }
        }
    }
}

#[test]
fn layouts_agree_on_divergent_branches() {
    let dev = DeviceSpec::c2075();
    let machine = compile(&divergent_kernel(), 16, 0);
    let n = 128 * 12;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 12, block: 128 },
        &[0, 4 * n],
        (8 * n) as usize,
    );
}

#[test]
fn layouts_agree_on_bank_conflicts() {
    let dev = DeviceSpec::gtx680();
    let machine = compile(&bank_conflict_kernel(), 16, 0);
    let n = 128 * 8;
    assert_all_configs_identical(
        &dev,
        &machine,
        Launch { grid: 8, block: 128 },
        &[0],
        (4 * n) as usize,
    );
}

/// Fault-seed sweep: under deterministic chaos (transients, resource
/// kills, hangs, jitter) both layouts must fail — or survive — with the
/// same outcome at the same cycle, for every seed. Fresh injectors with
/// equal seeds draw identical fault streams, so any divergence is the
/// layout's fault.
#[cfg(feature = "faults")]
mod fault_sweep {
    use super::*;
    use orion_gpusim::faults::{FaultInjector, FaultPlan};
    use orion_gpusim::sim::run_launch_faulty;

    #[test]
    fn layouts_agree_under_fault_injection() {
        let dev = DeviceSpec::gtx680();
        let workloads: [(&str, MModule, Launch, Vec<u32>, u32); 3] = {
            let stream_launch = Launch { grid: 16, block: 128 };
            let div_launch = Launch { grid: 12, block: 128 };
            let bank_launch = Launch { grid: 8, block: 128 };
            [
                (
                    "stream",
                    compile(&streaming_kernel(4), 16, 0),
                    stream_launch,
                    vec![0, 4 * stream_launch.grid * stream_launch.block],
                    8 * stream_launch.grid * stream_launch.block,
                ),
                (
                    "diverge",
                    compile(&divergent_kernel(), 16, 0),
                    div_launch,
                    vec![0, 4 * div_launch.grid * div_launch.block],
                    8 * div_launch.grid * div_launch.block,
                ),
                (
                    "conflict",
                    compile(&bank_conflict_kernel(), 16, 0),
                    bank_launch,
                    vec![0],
                    4 * bank_launch.grid * bank_launch.block,
                ),
            ]
        };
        for (name, machine, launch, params, bytes) in &workloads {
            for seed in [1u64, 7, 42] {
                let run = |layout: LaneLayout| {
                    let inj = FaultInjector::new(FaultPlan::chaos(seed, 0.5, 0.05));
                    let mut global = vec![0u8; *bytes as usize];
                    let opts = LaunchOptions {
                        layout,
                        scheduler: Scheduler::LinearScan,
                        parallelism: 1,
                        cycle_budget: Some(2_000_000),
                        ..LaunchOptions::default()
                    };
                    let r = run_launch_faulty(
                        &dev,
                        machine,
                        *launch,
                        params,
                        &mut global,
                        opts,
                        Some(&inj),
                    );
                    (r, global, inj.snapshot())
                };
                let (ra, ga, sa) = run(LaneLayout::Aos);
                let (rs, gs, ss) = run(LaneLayout::Soa);
                assert_eq!(ra, rs, "{name}/seed={seed}: outcome diverged between layouts");
                assert_eq!(ga, gs, "{name}/seed={seed}: memory diverged between layouts");
                assert_eq!(sa, ss, "{name}/seed={seed}: fault draws diverged (seed misuse)");
            }
        }
    }
}

//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;
use warped::dmr::intra::{self, LaneTables};
use warped::dmr::{checker, replayq};
use warped::dmr::{mapping, rfu, shuffle, DmrConfig, ThreadCoreMapping, WarpedDmr};
use warped::isa::{Reg, UnitType};
use warped::sim::WARP_SIZE;

proptest! {
    /// The RFU never assigns an active lane as a verifier, never verifies
    /// an idle lane, and for 4-lane clusters always reaches the
    /// theoretical min(#active, #idle) coverage.
    #[test]
    fn rfu_assignment_invariants(mask in 0u32..16) {
        let a = rfu::assign(mask, 4);
        for (ver, act) in &a.pairs {
            prop_assert_eq!(mask & (1 << ver), 0, "verifier must be idle");
            prop_assert_ne!(mask & (1 << act), 0, "verified must be active");
        }
        let active = mask.count_ones();
        prop_assert_eq!(a.covered_count(), active.min(4 - active));
    }

    /// 8-lane RFU clusters: structural invariants hold; coverage never
    /// exceeds the theoretical bound.
    #[test]
    fn rfu_eight_lane_invariants(mask in 0u32..256) {
        let a = rfu::assign(mask, 8);
        for (ver, act) in &a.pairs {
            prop_assert_eq!(mask & (1 << ver), 0);
            prop_assert_ne!(mask & (1 << act), 0);
        }
        let active = mask.count_ones();
        prop_assert!(a.covered_count() <= active.min(8 - active));
    }

    /// Cross-cluster mapping is a bijection on lanes, inverted by
    /// `logical_thread`.
    #[test]
    fn mapping_bijection(cluster_pow in 1u32..4) {
        let cs = 1usize << cluster_pow; // 2, 4, 8
        let mut seen = [false; WARP_SIZE];
        for t in 0..WARP_SIZE {
            let l = mapping::physical_lane(ThreadCoreMapping::CrossCluster, t, WARP_SIZE, cs);
            prop_assert!(l < WARP_SIZE);
            prop_assert!(!seen[l]);
            seen[l] = true;
            prop_assert_eq!(
                mapping::logical_thread(ThreadCoreMapping::CrossCluster, l, WARP_SIZE, cs),
                t
            );
        }
    }

    /// Mask permutation preserves popcount for any mask.
    #[test]
    fn map_mask_preserves_popcount(mask in any::<u32>()) {
        let m = mapping::map_mask(ThreadCoreMapping::CrossCluster, mask, WARP_SIZE, 4);
        prop_assert_eq!(m.count_ones(), mask.count_ones());
    }

    /// Lane shuffling is a fixed-point-free, cluster-preserving
    /// permutation.
    #[test]
    fn shuffle_is_derangement(lane in 0usize..32) {
        let v = shuffle::verify_lane(lane, 4, true);
        prop_assert_ne!(v, lane);
        prop_assert_eq!(v / 4, lane / 4);
    }

    /// Intra-warp coverage never exceeds the active count and needs idle
    /// lanes to be nonzero.
    #[test]
    fn intra_plan_bounds(mask in any::<u32>()) {
        let cfg = DmrConfig::default();
        let plan = intra::plan(mask, &cfg, WARP_SIZE);
        prop_assert!(plan.covered <= mask.count_ones());
        if mask == u32::MAX {
            prop_assert_eq!(plan.covered, 0);
        }
        for (ver, act, thread) in &plan.pairs {
            prop_assert_ne!(ver, act);
            prop_assert_ne!(mask & (1 << thread), 0);
        }
    }

    /// The engine's lane tables give `intra::plan`'s covered count and
    /// its `(verifier, verified, thread)` pairs in the same order, for any
    /// mask under both mappings and the paper's cluster sizes.
    #[test]
    fn lane_tables_match_intra_plan(mask in any::<u32>()) {
        for mapping in [ThreadCoreMapping::InOrder, ThreadCoreMapping::CrossCluster] {
            for cluster_size in [4, 8] {
                let cfg = DmrConfig { mapping, cluster_size, ..DmrConfig::default() };
                let plan = intra::plan(mask, &cfg, WARP_SIZE);
                let tables = LaneTables::of(&cfg);
                let phys = tables.physical_mask(mask);
                prop_assert_eq!(phys, mapping::map_mask(mapping, mask, WARP_SIZE, cluster_size));
                prop_assert_eq!(tables.covered(phys), plan.covered);
                prop_assert_eq!(tables.pairs(phys).collect::<Vec<_>>(), plan.pairs);
            }
        }
    }

    /// Algorithm 1 liveness: for any instruction-type sequence, every
    /// full-warp instruction is verified exactly once and the queue ends
    /// empty.
    #[test]
    fn replay_checker_verifies_everything(
        units in prop::collection::vec(0u8..3, 1..60),
        capacity in 0usize..12,
    ) {
        let mut c = checker::ReplayChecker::new(capacity);
        let mut events = Vec::new();
        for (i, u) in units.iter().enumerate() {
            let unit = match u {
                0 => UnitType::Sp,
                1 => UnitType::Sfu,
                _ => UnitType::LdSt,
            };
            let incoming = checker::Incoming {
                warp_uid: i as u64,
                unit,
                dst: Some(Reg(1)),
                srcs: [None; 4],
                cycle: i as u64,
                needs_inter: true,
                mask: u32::MAX,
            };
            c.on_issue(&incoming, &mut events);
        }
        c.on_done(units.len() as u64 + 100, &mut events);
        prop_assert_eq!(events.len(), units.len());
        let mut seen: Vec<u64> = events.iter().map(|e| e.entry.warp_uid).collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..units.len() as u64).collect();
        prop_assert_eq!(seen, expect);
        prop_assert_eq!(c.queue_len(), 0);
    }

    /// The ReplayQ type-directed dequeue never returns the requested type
    /// and never loses entries.
    #[test]
    fn replayq_type_dequeue(units in prop::collection::vec(0u8..3, 0..10)) {
        let mut q = replayq::ReplayQ::new(16);
        for (i, u) in units.iter().enumerate() {
            let unit = match u {
                0 => UnitType::Sp,
                1 => UnitType::Sfu,
                _ => UnitType::LdSt,
            };
            q.push(replayq::ReplayEntry {
                warp_uid: i as u64,
                unit,
                dst: None,
                cycle: i as u64,
                mask: u32::MAX,
            });
        }
        let before = q.len();
        if let Some(e) = q.take_different_type(UnitType::Sp) {
            prop_assert_ne!(e.unit, UnitType::Sp);
            prop_assert_eq!(q.len(), before - 1);
        } else {
            prop_assert!(q.iter().all(|e| e.unit == UnitType::Sp));
        }
    }
}

/// Exhaustively over every physical byte (so every cluster mask, alone
/// and beside its neighbours) and every byte of the warp: the lane
/// tables' covered count and verifier→verified pairs are those of each
/// cluster's `rfu::assign`.
#[test]
fn lane_tables_match_rfu_per_cluster() {
    for cluster_size in [1, 2, 4, 8] {
        let cfg = DmrConfig {
            cluster_size,
            mapping: ThreadCoreMapping::InOrder,
            ..DmrConfig::default()
        };
        let tables = LaneTables::of(&cfg);
        let cluster_full = (1u32 << cluster_size) - 1;
        for byte in 0u32..256 {
            for pos in 0..4 {
                let mut covered = 0;
                let mut pairs = Vec::new();
                for base in (0..8).step_by(cluster_size) {
                    let a = rfu::assign((byte >> base) & cluster_full, cluster_size);
                    covered += a.covered_count();
                    let lane = |l: usize| 8 * pos + base + l;
                    pairs.extend(a.pairs.iter().map(|&(v, act)| (lane(v), lane(act))));
                }
                let phys = byte << (8 * pos);
                assert_eq!(
                    tables.covered(phys),
                    covered,
                    "{cluster_size} lanes, {phys:08x}"
                );
                let got: Vec<_> = tables.pairs(phys).map(|(v, act, _)| (v, act)).collect();
                assert_eq!(got, pairs, "{cluster_size} lanes, {phys:08x}");
            }
        }
    }
}

/// The lane tables' per-thread and per-lane arrays are the mapping and
/// shuffle functions, for every configuration they are built for.
#[test]
fn lane_tables_match_lane_functions() {
    for mapping in [ThreadCoreMapping::InOrder, ThreadCoreMapping::CrossCluster] {
        for cluster_size in [1, 2, 4, 8] {
            for lane_shuffle in [false, true] {
                let cfg = DmrConfig {
                    mapping,
                    cluster_size,
                    lane_shuffle,
                    ..DmrConfig::default()
                };
                let tables = LaneTables::of(&cfg);
                for i in 0..WARP_SIZE {
                    assert_eq!(
                        tables.physical_lane(i),
                        mapping::physical_lane(mapping, i, WARP_SIZE, cluster_size)
                    );
                    assert_eq!(
                        tables.logical_thread(i),
                        mapping::logical_thread(mapping, i, WARP_SIZE, cluster_size)
                    );
                    assert_eq!(
                        tables.verify_lane(i),
                        shuffle::verify_lane(i, cluster_size, lane_shuffle)
                    );
                }
            }
        }
    }
}

/// A cluster must fit in one byte of the active mask.
#[test]
#[should_panic(expected = "power of two of at most 8 lanes")]
fn sixteen_lane_clusters_are_rejected() {
    let cfg = DmrConfig {
        cluster_size: 16,
        ..DmrConfig::default()
    };
    WarpedDmr::new(cfg, &warped::sim::GpuConfig::small());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: the simulator computes the same SAXPY as the host for
    /// arbitrary scalars, under DMR observation.
    #[test]
    fn saxpy_matches_host(a in -100.0f32..100.0, seed in 0u64..1000) {
        use warped::isa::{KernelBuilder, SpecialReg};
        use warped::sim::{Gpu, GpuConfig, LaunchConfig};

        let mut b = KernelBuilder::new("saxpy");
        let [tid, x, y, addr_x, addr_y] = b.regs();
        b.mov(tid, SpecialReg::GlobalTid);
        b.iadd(addr_x, b.param(0), tid);
        b.iadd(addr_y, b.param(1), tid);
        b.ld_global(x, addr_x, 0);
        b.ld_global(y, addr_y, 0);
        let ax = b.reg();
        b.fmul(ax, x, b.param(2));
        b.fadd(y, ax, y);
        b.st_global(addr_y, 0, y);
        let kernel = b.build().unwrap();

        let n = 64usize;
        let mut gpu = Gpu::new(GpuConfig::small());
        let xb = gpu.alloc_words(n);
        let yb = gpu.alloc_words(n);
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) as u32 as f32) / (u32::MAX as f32) - 0.5
        };
        let xs: Vec<f32> = (0..n).map(|_| next()).collect();
        let ys: Vec<f32> = (0..n).map(|_| next()).collect();
        gpu.write_words(xb, &xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        gpu.write_words(yb, &ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

        let mut engine = warped::dmr::WarpedDmr::new(DmrConfig::default(), gpu.config());
        let launch = LaunchConfig::linear(2, 32).with_params(vec![xb, yb, a.to_bits()]);
        gpu.launch(&kernel, &launch, &mut engine).unwrap();

        let out = gpu.read_words(yb, n);
        for i in 0..n {
            let expect = a * xs[i] + ys[i];
            prop_assert_eq!(f32::from_bits(out[i]), expect, "element {}", i);
        }
    }
}

/// One instruction of any non-`Exit` variant, decoded from 64 random
/// bits. Control flow always targets the next instruction so every pc
/// stays reachable and the generated kernel validates.
fn decode_instr(w: u64, pc: usize, regs: &[Reg]) -> warped::isa::Instruction {
    use warped::isa::{AluBinOp, AluUnOp, CmpOp, CmpType, Instruction, Operand, Pc, SfuOp, Space};
    let r = |k: u32| regs[((w >> (4 * k)) & 7) as usize];
    let ro = |k: u32| Operand::Reg(r(k));
    let next = Pc((pc + 1) as u32);
    match w % 12 {
        0 => Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: r(1),
            a: ro(2),
            b: Operand::Imm((w >> 32) as u32),
        },
        1 => Instruction::Un {
            op: AluUnOp::Mov,
            dst: r(1),
            a: ro(2),
        },
        2 => Instruction::IMad {
            dst: r(1),
            a: ro(2),
            b: ro(3),
            c: ro(4),
        },
        3 => Instruction::FFma {
            dst: r(1),
            a: ro(2),
            b: ro(3),
            c: ro(4),
        },
        4 => Instruction::Setp {
            cmp: CmpOp::Lt,
            ty: CmpType::U32,
            dst: r(1),
            a: ro(2),
            b: ro(3),
        },
        5 => Instruction::Sel {
            dst: r(1),
            cond: ro(2),
            if_true: ro(3),
            if_false: ro(4),
        },
        6 => Instruction::Sfu {
            op: SfuOp::Sin,
            dst: r(1),
            a: ro(2),
        },
        7 => Instruction::Ld {
            space: Space::Shared,
            dst: r(1),
            addr: ro(2),
            offset: 0,
        },
        8 => Instruction::St {
            space: Space::Shared,
            addr: ro(1),
            offset: 0,
            src: ro(2),
        },
        9 => Instruction::Branch {
            pred: r(1),
            negate: w & 16 != 0,
            target: next,
            reconv: next,
        },
        10 => Instruction::Jump { target: next },
        _ => Instruction::Bar,
    }
}

proptest! {
    /// Def/use consistency between the ISA and the dataflow pass, over
    /// every `Instruction` variant: the reaching-definition pass records
    /// exactly the writes the ISA declares (`Instruction::dst`, surfaced
    /// as `Kernel::writes`), and every recorded use reads the defined
    /// register (`Instruction::src_regs` / `Kernel::reads`).
    #[test]
    fn instruction_def_use_consistent_with_dataflow(
        words in proptest::collection::vec(any::<u64>(), 1..24)
    ) {
        use warped::analysis::{def_use, Cfg};
        use warped::isa::{Instruction, KernelBuilder, Pc};

        let mut b = KernelBuilder::new("prop-defuse");
        let regs: Vec<Reg> = (0..8).map(|_| b.reg()).collect();
        for (i, w) in words.iter().enumerate() {
            b.push(decode_instr(*w, i, &regs));
        }
        b.push(Instruction::Exit);
        let k = b.build().expect("generated kernel validates");

        let cfg = Cfg::build(&k);
        let du = def_use(&k, &cfg);

        let mut got: Vec<(u32, u16)> = du.defs.iter().map(|d| (d.pc.0, d.reg.0)).collect();
        got.sort_unstable();
        let mut expected: Vec<(u32, u16)> = (0..k.code().len())
            .filter_map(|pc| {
                let pc = Pc(pc as u32);
                k.writes(pc).first().map(|r| (pc.0, r.0))
            })
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected, "dataflow defs != declared writes");

        for (i, d) in du.defs.iter().enumerate() {
            for pc in &du.uses[i] {
                prop_assert!(
                    k.reads(*pc).contains(&d.reg),
                    "use of r{} at pc {} not in the ISA read set",
                    d.reg.0,
                    pc.0
                );
            }
        }
    }
}

//! Price goldens: every kernel the sim clock charges, pinned to the bit.
//!
//! `schedule_stability.rs` digests labels, classes and sizes only, so a
//! mistyped price constant that stays inside `calibration.rs`' bands would
//! pass both. Here each kernel command's label, every `KernelProfile` field
//! (floats as their bits), its launch and its elements are digested, beside
//! the simulated total, for the TPC-H plans under every strategy the
//! benchmark runs; and the makespans of one fixed SELECT chain through each
//! micro-figure entry point are pinned bit for bit.

use kfusion::core::exec::{execute, plan_schedule, ExecConfig, Strategy};
use kfusion::core::hetero::run_hetero;
use kfusion::core::microbench::{
    run, run_concurrent, run_cpu, ConcurrentVariant, DataMode, SelectChain,
};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q1, q21, q6};
use kfusion::vgpu::des::CommandKind;
use kfusion::vgpu::{DeviceSpec, GpuSystem, Schedule};

/// FNV-1a over one line per kernel command:
/// `stream|label|name|instr|read|written|fixed|regs|mem_eff|ctas|threads|elems`.
fn kernel_digest(schedule: &Schedule) -> u64 {
    let mut text = String::new();
    for (stream, cmds) in schedule.streams.iter().enumerate() {
        for cmd in cmds {
            if let CommandKind::Kernel { profile: p, launch, elems } = &cmd.kind {
                text.push_str(&format!(
                    "{stream}|{}|{}|{:x}|{:x}|{:x}|{:x}|{}|{:x}|{}|{}|{elems}\n",
                    cmd.label,
                    p.name,
                    p.instr_per_elem.to_bits(),
                    p.bytes_read_per_elem.to_bits(),
                    p.bytes_written_per_elem.to_bits(),
                    p.fixed_instr_per_thread.to_bits(),
                    p.regs_per_thread,
                    p.mem_efficiency.to_bits(),
                    launch.ctas,
                    launch.threads_per_cta,
                ));
            }
        }
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::Serial,
    Strategy::SerialRoundTrip,
    Strategy::Fusion,
    Strategy::FusionFission { segments: 8 },
];

/// `(kernel digest, report.total() bits)` per query and strategy.
const TPCH: [(&str, [(u64, u64); 4]); 3] = [
    (
        "Q1",
        [
            (0xdc91_52b3_45c2_6218, 0x3f90_c6a8_7d68_8fbb),
            (0xdc91_52b3_45c2_6218, 0x3fa4_84c7_e0e5_32aa),
            (0xcf13_2e14_2526_f95d, 0x3f8b_4f37_04d4_6f45),
            (0xcf13_2e14_2526_f95d, 0x3f8b_4f37_04d4_6f45),
        ],
    ),
    (
        "Q6",
        [
            (0x8a10_d526_28f1_a40e, 0x3f64_ca11_c7a8_e155),
            (0x8a10_d526_28f1_a40e, 0x3f80_f12d_454b_03d6),
            (0x7567_0f7d_de1f_28bc, 0x3f59_77cc_7051_2813),
            (0x7567_0f7d_de1f_28bc, 0x3f59_77cc_7051_2813),
        ],
    ),
    (
        "Q21",
        [
            (0xdfa8_c33f_7bcf_43a1, 0x3f7a_49be_5805_535e),
            (0xdfa8_c33f_7bcf_43a1, 0x3f89_cbda_c1b4_ec1e),
            (0xa207_a9d5_550d_bed0, 0x3f78_dfc4_11d1_aa8e),
            (0xa207_a9d5_550d_bed0, 0x3f78_dfc4_11d1_aa8e),
        ],
    ),
];

#[test]
fn tpch_kernel_prices_at_sf_0_01_are_bit_stable() {
    let system = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(0.01));
    let queries = [
        (q1::q1_plan(), q1::q1_inputs(&db)),
        (q6::q6_plan(), q6::q6_inputs(&db)),
        (q21::q21_plan(1), q21::q21_inputs(&db)),
    ];
    let mut failures = Vec::new();
    for ((name, golden), (plan, inputs)) in TPCH.iter().zip(&queries) {
        for (strategy, want) in STRATEGIES.iter().zip(golden) {
            let cfg = ExecConfig::new(*strategy, &system);
            let digest = kernel_digest(&plan_schedule(&system, plan, inputs, &cfg).unwrap());
            let total = execute(&system, plan, inputs, &cfg).unwrap().report.total().to_bits();
            if (digest, total) != *want {
                failures.push(format!("{name} {strategy:?}: ({digest:#018x}, {total:#018x})"));
            }
        }
    }
    assert!(failures.is_empty(), "prices moved:\n{}", failures.join("\n"));
}

/// The makespan bits of one fixed chain through every micro-figure entry
/// point, in the order [`chain_makespans`] lists them.
const CHAIN: [u64; 10] = [
    0x3f9f_ab8d_892a_9fd1,
    0x3faa_a072_fb6a_a423,
    0x3f9b_f3e4_27b9_0966,
    0x3f9a_5847_931e_6fc9,
    0x3f99_63f1_0ff6_8487,
    0x3fa9_00ac_2889_c53b,
    0x3f93_07f8_bb53_48d5,
    0x3f3a_4827_dbd3_7299,
    0x3f3a_d200_d8da_3a52,
    0x3f3c_477c_bdbe_e7de,
];

fn chain_makespans() -> Vec<(String, f64)> {
    let system = GpuSystem::c2070();
    let cpu = DeviceSpec::xeon_e5520_pair();
    // Synthetic, so the chain is large enough for fission to pipeline.
    let chain =
        SelectChain { mode: DataMode::Synthetic, ..SelectChain::auto(1 << 24, &[0.5, 0.3]) };
    let mut out: Vec<(String, f64)> = [
        Strategy::Serial,
        Strategy::SerialRoundTrip,
        Strategy::Fusion,
        Strategy::Fission { segments: 8 },
        Strategy::FusionFission { segments: 8 },
    ]
    .into_iter()
    .map(|s| (format!("run {s:?}"), run(&system, &chain, s).unwrap().total()))
    .collect();
    out.push(("run_cpu".into(), run_cpu(&cpu, &chain).unwrap().total()));
    out.push(("run_hetero".into(), run_hetero(&system, &cpu, &chain, 8, 0.25).unwrap().total()));
    for variant in
        [ConcurrentVariant::NoStreamOld, ConcurrentVariant::NoStreamNew, ConcurrentVariant::Stream]
    {
        let report = run_concurrent(&system, 1 << 18, 0.5, variant).unwrap();
        out.push((format!("run_concurrent {variant:?}"), report.total()));
    }
    out
}

#[test]
fn select_chain_makespans_are_bit_stable() {
    let got = chain_makespans();
    assert_eq!(got.len(), CHAIN.len());
    let failures: Vec<String> = got
        .iter()
        .zip(CHAIN)
        .filter(|((_, t), want)| t.to_bits() != *want)
        .map(|((what, t), _)| format!("{what}: {:#018x}", t.to_bits()))
        .collect();
    assert!(failures.is_empty(), "makespans moved:\n{}", failures.join("\n"));
}

//! Schedule-stability goldens: the command streams `plan_schedule` returns
//! for TPC-H must stay command-for-command what they were before the
//! select-chain micro-figures moved onto the same builder, so the
//! certificates in `BENCH_model.json` and the benchmark's simulated clock
//! cannot drift silently.
//!
//! Each digest is FNV-1a over the stream count and one line per command —
//! `stream|label|class|bytes-or-elements` — captured from the commit that
//! still had the hand-assembled `microbench` builder.

use kfusion::core::exec::{plan_schedule, ExecConfig, Strategy};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q1, q21, q6};
use kfusion::vgpu::des::CommandKind;
use kfusion::vgpu::{GpuSystem, Schedule};

fn digest(schedule: &Schedule) -> u64 {
    let mut text = format!("streams={}\n", schedule.streams.len());
    for (stream, cmds) in schedule.streams.iter().enumerate() {
        for cmd in cmds {
            let size = match &cmd.kind {
                CommandKind::CopyH2D { bytes, .. } | CommandKind::CopyD2H { bytes, .. } => *bytes,
                CommandKind::Kernel { elems, .. } => *elems,
                _ => 0,
            };
            text.push_str(&format!("{stream}|{}|{:?}|{size}\n", cmd.label, cmd.class));
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

fn assert_goldens(scale: f64, goldens: [(&str, [u64; 4]); 3]) {
    let system = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(scale));
    let queries = [
        (q1::q1_plan(), q1::q1_inputs(&db)),
        (q6::q6_plan(), q6::q6_inputs(&db)),
        (q21::q21_plan(1), q21::q21_inputs(&db)),
    ];
    for ((name, golden), (plan, inputs)) in goldens.iter().zip(&queries) {
        for (strategy, want) in STRATEGIES.iter().zip(golden) {
            let cfg = ExecConfig::new(*strategy, &system);
            let got = digest(&plan_schedule(&system, plan, inputs, &cfg).unwrap());
            assert_eq!(got, *want, "{name} at SF {scale} under {strategy:?}: {got:#018x}");
        }
    }
}

#[test]
fn tpch_schedules_at_sf_0_01_are_command_for_command_stable() {
    assert_goldens(
        0.01,
        [
            (
                "Q1",
                [
                    0x3ef5_ecd5_ef63_dd1f,
                    0xe6d7_e879_9b32_e29f,
                    0x2f60_5262_2cbe_4d42,
                    0xefab_8857_6668_3eb3,
                ],
            ),
            (
                "Q6",
                [
                    0xdd1d_f2a8_3bee_d312,
                    0xacf1_df36_beb8_f22a,
                    0x6941_884b_9013_0525,
                    0xc2aa_a1d6_1649_6aee,
                ],
            ),
            (
                "Q21",
                [
                    0xc35a_3e64_b81f_bccf,
                    0x980e_2366_5367_8689,
                    0xd88e_f1fd_a975_0d13,
                    0xcdb4_8544_f239_39fe,
                ],
            ),
        ],
    );
}

/// SF 0.2 is where the benchmark runs and the smallest scale at which a
/// TPC-H plan actually pipelines (Q1's fused JOIN block: 93 commands over
/// four streams), so the fission emitter itself is pinned here.
#[test]
fn tpch_schedules_at_sf_0_2_are_command_for_command_stable() {
    assert_goldens(
        0.2,
        [
            (
                "Q1",
                [
                    0xc726_fb1c_967a_2894,
                    0xd342_3329_9d07_6b32,
                    0xc483_36c3_845b_2e4d,
                    0x70a5_ebee_742e_a5b3,
                ],
            ),
            (
                "Q6",
                [
                    0x68d1_1c14_5534_d406,
                    0x257c_30af_703b_1ffc,
                    0x4610_9fb4_b488_435f,
                    0xc44c_9102_3ed5_5d18,
                ],
            ),
            (
                "Q21",
                [
                    0xaeee_1005_8fa9_5aa8,
                    0x6520_fcf0_0e60_36bc,
                    0xc378_7aee_efe2_6a19,
                    0xe876_2ec0_4f39_d2ec,
                ],
            ),
        ],
    );
}

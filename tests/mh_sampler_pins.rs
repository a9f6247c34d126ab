//! Absolute bit pins for the Metropolis–Hastings sampler presets.
//!
//! The other MH batteries compare runs with each other (threads, topologies,
//! batchings, resume), which a change to the sampler itself would pass as
//! long as every run changed the same way.  This file pins absolute values
//! instead: for the alias-hybrid, LightLDA and pruned-LightLDA presets, each
//! rebuilding its stale proposals every 3 iterations, it fixes
//!
//! * the z signature after 8 iterations (rebuilds at 0, 3 and 6) on 1 and
//!   on 4 GPUs;
//! * an FNV-1a hash of the written checkpoint, sampler resume section
//!   included;
//! * the `f64::to_bits` of the summed simulated iteration time and of the
//!   summed sampler setup time, per topology;
//! * the z signature of a streaming session that burns in ingested
//!   documents (two sweeps) against a model already trained with the
//!   preset;
//! * an FNV-1a hash of every cost counter of one sampling launch.  The
//!   simulated clock is a roofline maximum, so a charge on the side that
//!   does not bind (say, a flop count in a memory-bound launch) leaves the
//!   times unchanged; the counters show it.
//!
//! Any refactor of the MH kernels must keep every constant here unchanged:
//! same f64 expressions, same RNG draw indices, same cost-model charges.

use culda::baselines::CuLdaSolver;
use culda::core::{
    build_work_items, sampler_for_strategy, ChunkState, LdaConfig, ModelCheckpoint,
    SamplerStrategy, SessionBuilder,
};
use culda::corpus::{partition::DocRange, ChunkLayout};
use culda::gpusim::{Device, DeviceSpec, Interconnect, LaunchConfig, MultiGpuSystem};
use culda_testkit::determinism::z_signature;
use culda_testkit::fixtures;

const K: usize = 16;
const SEED: u64 = 1515;
const ITERATIONS: usize = 8;
const REBUILD_EVERY: usize = 3;

/// What one topology's training run pins.
#[derive(Debug, PartialEq, Eq)]
struct TrainPins {
    z_signature: u64,
    checkpoint_fnv: u64,
    sim_time_bits: u64,
    setup_time_bits: u64,
}

/// Everything pinned for one preset.
#[derive(Debug, PartialEq, Eq)]
struct PresetPins {
    one_gpu: TrainPins,
    four_gpu: TrainPins,
    stream_z: u64,
    launch_counters: u64,
}

/// The three shipped MH presets with the rebuild cadence shortened to
/// [`REBUILD_EVERY`], so 8 iterations cross two cadence rebuilds.
fn presets() -> Vec<(&'static str, SamplerStrategy)> {
    let with_cadence = |s: SamplerStrategy| match s {
        SamplerStrategy::AliasHybrid { mh_steps, .. } => SamplerStrategy::AliasHybrid {
            rebuild_every: REBUILD_EVERY,
            mh_steps,
        },
        SamplerStrategy::LightLda {
            mh_steps,
            prune_below,
            ..
        } => SamplerStrategy::LightLda {
            rebuild_every: REBUILD_EVERY,
            mh_steps,
            prune_below,
        },
        other => panic!("{other} is not an MH preset"),
    };
    vec![
        ("alias", with_cadence(SamplerStrategy::alias_hybrid())),
        ("light", with_cadence(SamplerStrategy::light_lda())),
        (
            "light-pruned",
            with_cadence(SamplerStrategy::light_lda_pruned()),
        ),
    ]
}

fn system(gpus: usize) -> MultiGpuSystem {
    if gpus == 1 {
        MultiGpuSystem::single(DeviceSpec::v100_volta(), SEED)
    } else {
        MultiGpuSystem::homogeneous(DeviceSpec::v100_volta(), gpus, SEED, Interconnect::NvLink)
    }
}

fn config(sampler: SamplerStrategy) -> LdaConfig {
    LdaConfig::with_topics(K).seed(SEED).sampler(sampler)
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The same positional signature as [`z_signature`], over a raw snapshot
/// (the streaming session is not a `SolverState`).
fn snapshot_signature(z: &[Vec<u16>]) -> u64 {
    let mut bytes = Vec::new();
    for (d, zd) in z.iter().enumerate() {
        bytes.extend_from_slice(&(d as u64 ^ 0x5555_5555_5555_5555).to_le_bytes());
        for &topic in zd {
            bytes.extend_from_slice(&(topic as u64).to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn train_pins(corpus: &culda::corpus::Corpus, sampler: SamplerStrategy, gpus: usize) -> TrainPins {
    let mut trainer = SessionBuilder::new()
        .corpus(corpus)
        .config(config(sampler))
        .system(system(gpus))
        .build()
        .expect("trainer construction");
    trainer.train(ITERATIONS);
    let sim_time: f64 = trainer.history().iter().map(|s| s.sim_time_s).sum();
    let setup_time: f64 = trainer
        .history()
        .iter()
        .map(|s| s.sampler_setup_time_s)
        .sum();
    let ckpt = ModelCheckpoint::from_trainer(&trainer);
    assert!(
        ckpt.sampler_state.is_some(),
        "an MH checkpoint must carry its proposal snapshot"
    );
    let mut bytes = Vec::new();
    ckpt.write(&mut bytes).unwrap();
    TrainPins {
        z_signature: z_signature(&CuLdaSolver::new(trainer, "pins")),
        checkpoint_fnv: fnv1a(&bytes),
        sim_time_bits: sim_time.to_bits(),
        setup_time_bits: setup_time.to_bits(),
    }
}

/// Train on the first half of the corpus, ingest the second half with two
/// burn-in sweeps against the trained model's live counts, train again.
fn stream_z(corpus: &culda::corpus::Corpus, sampler: SamplerStrategy) -> u64 {
    let mut halves = fixtures::doc_batches(corpus, 2).into_iter();
    let (first, second) = (halves.next().unwrap(), halves.next().unwrap());
    let mut session = SessionBuilder::new()
        .config(config(sampler))
        .burn_in_sweeps(2)
        .system(system(1))
        .build_streaming()
        .expect("streaming session construction");
    session.ingest(&first);
    session.train(4).unwrap();
    session.ingest(&second);
    session.train(2).unwrap();
    session.validate().unwrap();
    snapshot_signature(&session.z_snapshot())
}

/// One chunk over the whole corpus: build the stale tables at iteration 0,
/// launch the sampling kernel once, and hash its summed cost counters.
fn launch_counters(corpus: &culda::corpus::Corpus, sampler: SamplerStrategy) -> u64 {
    let cfg = config(sampler);
    let range = DocRange {
        start: 0,
        end: corpus.num_docs(),
    };
    let state = ChunkState::new(0, ChunkLayout::build(corpus, range), K);
    state.random_init_stable(&cfg, cfg.seed);
    state.phi_global.copy_from(&state.phi_local);
    state.nk_global.store_all(&state.nk_local.to_vec());
    let kernel = sampler_for_strategy(sampler);
    let dev = Device::new(0, DeviceSpec::v100_volta(), SEED);
    assert!(kernel.prepare_chunk(&dev, &state, &cfg, 0) > 0.0);
    let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
    let c = dev
        .launch(
            kernel.name(),
            LaunchConfig::new(items.len()),
            &kernel.sampling_kernel(&state, &items, &cfg, 0),
        )
        .counters;
    let fields = [
        c.dram_read_bytes,
        c.dram_write_bytes,
        c.shared_bytes,
        c.l1_bytes,
        c.flops,
        c.int_ops,
        c.atomic_ops,
        c.rng_draws,
    ];
    fnv1a(
        &fields
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

fn preset_pins(corpus: &culda::corpus::Corpus, sampler: SamplerStrategy) -> PresetPins {
    PresetPins {
        one_gpu: train_pins(corpus, sampler, 1),
        four_gpu: train_pins(corpus, sampler, 4),
        stream_z: stream_z(corpus, sampler),
        launch_counters: launch_counters(corpus, sampler),
    }
}

fn expected(name: &str) -> PresetPins {
    match name {
        "alias" => PresetPins {
            one_gpu: TrainPins {
                z_signature: 0x6feb_ed45_e428_ca4f,
                checkpoint_fnv: 0x595e_dc99_d728_6a6e,
                sim_time_bits: 0x3f25_6058_2373_6504,
                setup_time_bits: 0x3ef0_a868_2dfd_e38b,
            },
            four_gpu: TrainPins {
                z_signature: 0x6feb_ed45_e428_ca4f,
                checkpoint_fnv: 0x595e_dc99_d728_6a6e,
                sim_time_bits: 0x3f31_60c7_5176_e038,
                setup_time_bits: 0x3ef0_6075_02b0_8918,
            },
            stream_z: 0x44d4_deab_fef7_65a4,
            launch_counters: 0xaafd_d542_6de2_7e3a,
        },
        "light" => PresetPins {
            one_gpu: TrainPins {
                z_signature: 0x2a4d_92af_75c9_0a89,
                checkpoint_fnv: 0x1471_6d40_4cd7_d2c3,
                sim_time_bits: 0x3f24_263c_4899_4598,
                setup_time_bits: 0x3ef0_7bce_2c9e_43a3,
            },
            four_gpu: TrainPins {
                z_signature: 0x2a4d_92af_75c9_0a89,
                checkpoint_fnv: 0x1471_6d40_4cd7_d2c3,
                sim_time_bits: 0x3f31_2bbb_fe08_5b05,
                setup_time_bits: 0x3ef0_4158_996f_6a25,
            },
            stream_z: 0xaaee_5fcf_0cb5_fe87,
            launch_counters: 0x402b_b471_64f5_dee9,
        },
        "light-pruned" => PresetPins {
            one_gpu: TrainPins {
                z_signature: 0xc69f_dab2_4bf3_5da0,
                checkpoint_fnv: 0x5bdd_b9bf_390b_73d1,
                sim_time_bits: 0x3f24_1823_4390_d777,
                setup_time_bits: 0x3ef0_09ab_abbc_b364,
            },
            four_gpu: TrainPins {
                z_signature: 0xc69f_dab2_4bf3_5da0,
                checkpoint_fnv: 0x5bdd_b9bf_390b_73d1,
                sim_time_bits: 0x3f31_272d_2819_fd89,
                setup_time_bits: 0x3eef_ef34_a495_68c9,
            },
            stream_z: 0x8397_e10f_2f89_6a73,
            launch_counters: 0x07a8_1da9_6fef_79fa,
        },
        other => panic!("no pins for {other}"),
    }
}

fn check_preset(name: &str) {
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let (_, sampler) = presets()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("known preset");
    let got = preset_pins(&corpus, sampler);
    // The determinism contract ties the topologies together; only the
    // simulated clock depends on the GPU count.
    assert_eq!(got.one_gpu.z_signature, got.four_gpu.z_signature);
    assert_eq!(got.one_gpu.checkpoint_fnv, got.four_gpu.checkpoint_fnv);
    assert_eq!(got, expected(name), "{name} ({sampler}) moved: {got:#x?}");
}

#[test]
fn alias_hybrid_preset_is_pinned() {
    check_preset("alias");
}

#[test]
fn light_lda_preset_is_pinned() {
    check_preset("light");
}

#[test]
fn light_lda_pruned_preset_is_pinned() {
    check_preset("light-pruned");
}

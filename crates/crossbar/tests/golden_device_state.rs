//! Golden bit patterns of one scripted device and one small crossbar.
//!
//! Every value below is the exact `to_bits()` pattern the device and
//! crossbar paths produced when the file was written. A change to any
//! floating-point expression of the aging law, the pulse loop, drift or
//! the delta predicate — or to the order the expressions run in — moves
//! at least one of them.

use memaging_crossbar::{Crossbar, ProgramStats};
use memaging_device::{ArrheniusAging, DeviceError, DeviceModel, DeviceSpec, Memristor};
use memaging_tensor::Tensor;

/// Aging fast enough that a few full swings push the window edge below
/// the top levels.
fn fast_aging() -> ArrheniusAging {
    ArrheniusAging { a_f: 2.0e16, a_g: 2.0e15, thermal_coupling: 2.0, ..ArrheniusAging::default() }
}

fn model() -> DeviceModel {
    DeviceModel::new(DeviceSpec::default(), fast_aging()).unwrap()
}

/// `[stress, grid position, conductance, pulse count]` of a device.
fn state(d: &DeviceModel, m: &Memristor) -> [u64; 4] {
    [
        m.stress().to_bits(),
        m.grid_position().to_bits(),
        m.conductance(d).value().to_bits(),
        m.pulse_count(),
    ]
}

/// The scripted standalone-device sequence: full swings until the aged
/// window clips the top level, then nudges, bare pulses, conductance drift,
/// one more program across the window edge, and a forced wear-out.
fn device_script() -> Vec<[u64; 4]> {
    let d = model();
    let mut m = Memristor::new(&d);
    let mut trace = vec![state(&d, &m)];
    let mut clipped = 0;
    for _ in 0..6 {
        let down = m.program_to_level(&d, 0).unwrap();
        let up = m.program_to_level(&d, 31).unwrap();
        clipped += usize::from(up.clipped());
        trace.push([down.pulses, up.pulses, up.achieved_level as u64, m.usable_levels(&d) as u64]);
        trace.push(state(&d, &m));
    }
    assert!(clipped > 0, "the script must cross the aged-window edge");
    for dir in [1, -1, -1, 1] {
        m.nudge(&d, dir).unwrap();
        trace.push(state(&d, &m));
    }
    m.pulse(&d, 0).unwrap();
    m.pulse(&d, -1).unwrap();
    trace.push(state(&d, &m));
    m.drift_conductance(&d, 0.003);
    trace.push(state(&d, &m));
    m.drift_conductance(&d, -0.02);
    trace.push(state(&d, &m));
    let out = m.program_to_level(&d, 31).unwrap();
    trace.push([out.pulses, out.achieved_level as u64, m.level(&d) as u64, 0]);
    trace.push(state(&d, &m));
    m.force_worn_out(&d);
    assert!(m.is_worn_out(&d));
    assert!(matches!(m.pulse(&d, 1), Err(DeviceError::ProgramOnDeadDevice)));
    trace.push(state(&d, &m));
    trace
}

fn conductance_bits(x: &Crossbar) -> Vec<u32> {
    x.conductances().as_slice().iter().map(|g| g.to_bits()).collect()
}

/// Level-grid conductance targets; `shift` moves the odd cells by three
/// levels per step and leaves the even ones in place.
fn targets(shift: usize) -> Tensor {
    let spec = DeviceSpec::default();
    Tensor::from_fn([3, 4], |i| {
        let level = (i * 5 + shift * (i % 2) * 3) % spec.levels;
        (1.0 / (spec.r_min + level as f64 * spec.level_width())) as f32
    })
}

#[test]
fn scripted_device_sequence_keeps_its_bits() {
    let trace = device_script();
    assert_eq!(trace, DEVICE_GOLDEN);
}

#[test]
fn a_device_is_its_32_byte_state() {
    assert_eq!(std::mem::size_of::<Memristor>(), 32);
}

#[test]
fn small_crossbar_keeps_its_bits() {
    let mut x = Crossbar::new(3, 4, model()).unwrap();
    let full = x.program_conductances(&targets(0)).unwrap();
    let after_full = conductance_bits(&x);
    let delta = x.program_conductances(&targets(1)).unwrap();
    let after_delta = conductance_bits(&x);
    let ambient = x.equilibrate_thermal();
    // Sized so that only the hardest-cycled cells lose their window.
    let spec = DeviceSpec::default();
    let span = spec.r_max - spec.r_min;
    x.apply_read_disturb(
        3,
        fast_aging().stress_for_degradation(spec.temperature, 0.93 * span) / 3.0,
    );
    let again = x.program_conductances(&targets(1)).unwrap();
    let after_disturb = conductance_bits(&x);
    let stress = x.total_stress();
    assert_eq!(full, FULL_STATS);
    assert_eq!(after_full, AFTER_FULL);
    assert_eq!(delta, DELTA_STATS);
    assert_eq!(after_delta, AFTER_DELTA);
    assert_eq!(ambient.to_bits(), AMBIENT_BITS);
    assert_eq!(again, DISTURBED_STATS);
    assert_eq!(after_disturb, AFTER_DISTURB);
    assert_eq!(stress.to_bits(), STRESS_BITS);
}

/// Rows of [`device_script`]: device states, plus one row per full swing
/// `[down pulses, up pulses, achieved level, usable levels]` and one for
/// the final program `[pulses, achieved level, level, 0]`.
const DEVICE_GOLDEN: &[[u64; 4]] = &[
    [0, 4625196817309499392, 4535849559455038941, 0],
    [16, 26, 25, 25],
    [4534045268238185828, 4627690634433900165, 4533301141111946273, 42],
    [25, 22, 21, 21],
    [4538817034542522881, 4626545149079909673, 4534507424863121848, 89],
    [21, 19, 18, 18],
    [4541205544609733023, 4625630761473511105, 4535465476371407742, 129],
    [18, 16, 15, 15],
    [4543077052595406828, 4624499211543964110, 4536205442282550672, 163],
    [15, 14, 12, 13],
    [4544461633074219100, 4623160662185375816, 4537044350413762795, 192],
    [13, 12, 10, 11],
    [4545280213582500625, 4621947598730473378, 4538056644509102937, 217],
    [4545298802130936585, 4621920690391818347, 4538082729462896490, 218],
    [4545317455891757029, 4621837419247352120, 4538164624837171486, 219],
    [4545336314391013160, 4621781124252009989, 4538221015845888163, 220],
    [4545355313867791083, 4621837419247352120, 4538164624837171486, 221],
    [4545393094622934260, 4621221649930998580, 4538830948123445856, 223],
    [4545393094622934260, 4621200799237930377, 4538855577292412036, 223],
    [4545393094622934260, 4621342640687373934, 4538690890249258175, 223],
    [2, 10, 10, 0],
    [4545432332955244422, 4621728165075301285, 4538274840445789944, 225],
    [4549935932582614918, 4621728165075301285, 4547007122018943789, 225],
];

const FULL_STATS: ProgramStats = ProgramStats {
    pulses: 95,
    clipped: 1,
    dead: 0,
    programmed: 12,
    skipped_unchanged: 0,
    rewritten: 12,
};
const AFTER_FULL: &[u32] = &[
    953267991, 942347613, 936831533, 933013404, 930512234, 927672671, 925897747, 945827238,
    939292929, 934262036, 931577155, 928679642,
];

const DELTA_STATS: ProgramStats = ProgramStats {
    pulses: 19,
    clipped: 1,
    dead: 0,
    programmed: 7,
    skipped_unchanged: 5,
    rewritten: 7,
};
const AFTER_DELTA: &[u32] = &[
    953267991, 939292929, 936831533, 931577155, 930512234, 926402392, 925918503, 941160447,
    939292929, 932485412, 931577155, 927220483,
];

const DISTURBED_STATS: ProgramStats = ProgramStats {
    pulses: 9,
    clipped: 9,
    dead: 3,
    programmed: 9,
    skipped_unchanged: 0,
    rewritten: 9,
};
const AFTER_DISTURB: &[u32] = &[
    953267991, 950568609, 949827981, 949636237, 949618338, 950001822, 950168733, 951079685,
    950031021, 949799183, 949506881, 949913679,
];

const AMBIENT_BITS: u64 = 0x3ed1e63e36e483b3;
const STRESS_BITS: u64 = 0x3f596bb80327d7ac;

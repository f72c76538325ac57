//! **Fig. 4** — the aged resistance window and usable level count of a
//! single memristor as programming stress accumulates (the paper's 8-level
//! illustration: both bounds fall; the usable count shrinks 8 → 3 → dead).
//!
//! ```text
//! cargo run --release -p memaging-bench --bin exp_fig4
//! ```

use memaging::device::{ArrheniusAging, DeviceModel, DeviceSpec, Memristor};
use memaging_bench::{banner, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Fig. 4: aged resistance window vs accumulated programming stress");
    let spec = DeviceSpec { levels: 8, ..DeviceSpec::default() };
    let model = DeviceModel::new(spec, ArrheniusAging::default())?;
    let mut cell = Memristor::new(&model);
    let mut table = TextTable::new(&[
        "pulses",
        "stress [s]",
        "R_aged_min [kOhm]",
        "R_aged_max [kOhm]",
        "usable levels",
    ]);
    let mut checkpoint = 0u64;
    loop {
        let w = cell.aged_window(&model);
        table.row(&[
            format!("{}", cell.pulse_count()),
            format!("{:.2e}", cell.stress()),
            format!("{:.2}", w.r_min / 1e3),
            format!("{:.2}", w.r_max / 1e3),
            format!("{}", cell.usable_levels(&model)),
        ]);
        if cell.is_worn_out(&model) {
            break;
        }
        // Worst-case duty: full-range SET/RESET cycling at the low-resistance end.
        checkpoint += 1000;
        while cell.pulse_count() < checkpoint {
            if cell.program_to_level(&model, 0).is_err()
                || cell.program_to_level(&model, spec.levels - 1).is_err()
            {
                break;
            }
        }
    }
    table.print();
    println!(
        "\nthe paper's Fig. 4 failure mode reproduces: a target above the aged window\n\
         clips (requesting the top level after aging lands at the aged bound), and the\n\
         usable level count decreases monotonically to device death."
    );

    // Demonstrate the Level-7 -> Level-2 clipping event explicitly.
    let mut demo = Memristor::new(&model);
    demo.program_to_level(&model, 0)?;
    while demo.usable_levels(&model) > 3 {
        if demo.pulse(&model, 1).is_err() || demo.pulse(&model, -1).is_err() {
            break;
        }
    }
    if !demo.is_worn_out(&model) {
        let outcome = demo.program_to_level(&model, 7)?;
        println!(
            "clipping demo: requested level {}, achieved level {} (clipped: {})",
            outcome.requested_level,
            outcome.achieved_level,
            outcome.clipped()
        );
    }
    Ok(())
}

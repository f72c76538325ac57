//! Single-device aging inspector: steps one memristor through programming
//! stress and prints the trajectory of its resistance window and usable
//! level count — the paper's Fig. 4, live.
//!
//! Run with:
//! ```text
//! cargo run --release -p memaging --example aging_inspector
//! ```

use memaging::device::{ArrheniusAging, DeviceModel, DeviceSpec, Memristor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = DeviceSpec { levels: 8, ..DeviceSpec::default() };
    let model = DeviceModel::new(spec, ArrheniusAging::default())?;
    let mut cell = Memristor::new(&model);

    println!("device: {} levels over [{:.0}, {:.0}] ohm", spec.levels, spec.r_min, spec.r_max);
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>8}",
        "pulses", "stress [s]", "R_aged_min", "R_aged_max", "levels"
    );

    let mut checkpoint = 0u64;
    loop {
        let window = cell.aged_window(&model);
        println!(
            "{:>10} {:>12.3e} {:>14.1} {:>14.1} {:>8}",
            cell.pulse_count(),
            cell.stress(),
            window.r_min,
            window.r_max,
            cell.usable_levels(&model)
        );
        if cell.is_worn_out(&model) {
            println!("device worn out: fewer than 2 usable levels remain");
            break;
        }
        // Stress the device with a burst of low-resistance SET/RESET cycles
        // (the worst case: maximum programming current).
        checkpoint += 2000;
        while cell.pulse_count() < checkpoint {
            if cell.program_to_level(&model, 0).is_err() {
                break;
            }
            if cell.program_to_level(&model, spec.levels - 1).is_err() {
                break;
            }
            if cell.pulse_count() == 0 {
                break;
            }
        }
        if cell.is_worn_out(&model) {
            let window = cell.aged_window(&model);
            println!(
                "{:>10} {:>12.3e} {:>14.1} {:>14.1} {:>8}",
                cell.pulse_count(),
                cell.stress(),
                window.r_min,
                window.r_max,
                cell.usable_levels(&model)
            );
            println!("device worn out: fewer than 2 usable levels remain");
            break;
        }
    }

    println!(
        "\nlifetime summary: {} pulses, {:.3e} s effective stress",
        cell.pulse_count(),
        cell.stress()
    );
    println!("note: a target above the aged window now clips (Fig. 4's 'Level 7 -> Level 2').");
    Ok(())
}

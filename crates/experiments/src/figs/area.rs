//! §7.6: BMU area overhead, reproduced with the analytic area model.

use crate::config::ExpConfig;
use crate::paper_ref;
use crate::report::Table;
use smash_bmu::AreaModel;

/// Runs the area estimate.
pub fn run(_cfg: &ExpConfig) -> Vec<Table> {
    let m = AreaModel::paper_default();
    let mut t = Table::new("Section 7.6: BMU area overhead", &["quantity", "value"]);
    t.push_row(vec![
        "SRAM (4 groups x 3 buffers x 256 B)".into(),
        format!("{} bytes", m.sram_bytes()),
    ]);
    t.push_row(vec![
        "registers".into(),
        format!("{} bytes", m.register_bytes()),
    ]);
    t.push_row(vec![
        "BMU area".into(),
        format!("{:.4} mm^2", m.bmu_area_mm2()),
    ]);
    t.push_row(vec![
        "reference core area".into(),
        format!("{:.1} mm^2", m.core_area_mm2),
    ]);
    t.push_row(vec![
        "overhead".into(),
        format!(
            "{:.3}% (paper: at most {:.3}%)",
            m.overhead_percent(),
            paper_ref::AREA_OVERHEAD_PERCENT
        ),
    ]);
    t.note("analytic SRAM/register model (smash_bmu::area) substitutes CACTI 6.5");
    vec![t]
}

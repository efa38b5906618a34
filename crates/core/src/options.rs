//! Estimator options.

/// Tuning of the plan estimator.
#[derive(Debug, Clone)]
pub struct EstimateOptions {
    /// §4 item 4: propagate interesting properties into a MEMO entry only on
    /// the first join that produces it. Cheaper, slightly less precise.
    pub first_join_only: bool,
    /// §3.4: also maintain the compound-property alternative (vectors of
    /// (order, partition)); slower, used by the ablation benches.
    pub compound_properties: bool,
    /// §6.2 single-pass multi-level estimation: additional composite-inner
    /// limits (below the configured one) to account simultaneously.
    pub levels: Vec<usize>,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        Self {
            first_join_only: true,
            compound_properties: false,
            levels: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_db2_prototype() {
        let o = EstimateOptions::default();
        assert!(o.first_join_only, "the §4 shortcut is on by default");
        assert!(
            !o.compound_properties,
            "separate lists are the paper's choice"
        );
        assert!(o.levels.is_empty());
    }
}

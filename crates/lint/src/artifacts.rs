//! Matching experiments to their documentation and their CSVs.
//!
//! An experiment id is named by an EXPERIMENTS.md heading that carries
//! it in backticks. An artifact is named by its experiment module as a
//! string literal, verbatim or as a `format!` template whose fixed text
//! it fits.

/// Whether the markdown line `heading` is a heading that names the
/// experiment `id` (in backticks, so `large_scale` is not named by a
/// heading for `large_scale_100k`).
pub fn heading_names(heading: &str, id: &str) -> bool {
    heading.starts_with('#') && heading.contains(&format!("`{id}`"))
}

/// Whether `name` fits the `format!` template `template`: its fixed
/// fragments appear in `name` in order, the first one as a prefix and a
/// fixed tail as a suffix. A template with fewer than 4 fixed bytes
/// matches nothing.
pub fn format_matches(template: &str, name: &str) -> bool {
    let mut frags = Vec::new();
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            return false;
        };
        frags.push(&rest[..open]);
        rest = &rest[open + close + 1..];
    }
    frags.push(rest);
    if frags.iter().map(|f| f.len()).sum::<usize>() < 4 {
        return false;
    }
    let Some((tail, init)) = frags.split_last() else {
        return false;
    };
    let mut pos = 0;
    for (i, frag) in init.iter().enumerate() {
        match name[pos..].find(frag) {
            Some(found) if i > 0 || found == 0 => pos += found + frag.len(),
            _ => return false,
        }
    }
    if init.is_empty() {
        return name == *tail;
    }
    name.len() >= pos + tail.len() && name.ends_with(tail)
}

/// Whether the Rust source `src` names the artifact `name`: as a string
/// literal, or as a `format!` template it fits.
pub fn module_produces(src: &str, name: &str) -> bool {
    src.contains(&format!("\"{name}\""))
        || src
            .split('"')
            .skip(1)
            .step_by(2)
            .any(|lit| lit.contains('{') && format_matches(lit, name))
}

/// The module under `experiments::` whose function the registry entry
/// `id` names as its campaign, read from the registry's source.
pub fn experiment_module(registry_src: &str, id: &str) -> Option<String> {
    let (_, entry) = registry_src.split_once(&format!("id: \"{id}\""))?;
    let (_, campaign) = entry.split_once("experiments::")?;
    campaign.split("::").next().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headings_name_an_experiment_by_its_backticked_id_only() {
        let h = "## Engine-scale incast (`large_scale_100k`)";
        assert!(heading_names(h, "large_scale_100k"));
        assert!(!heading_names(h, "large_scale"));
        assert!(!heading_names(
            "## Fig. 8 (`exp_large_scale`)",
            "large_scale"
        ));
        assert!(!heading_names("## Fig. 8 — large_scale", "large_scale"));
        assert!(!heading_names("See `large_scale`.", "large_scale"));
    }

    #[test]
    fn format_templates_match_fixed_fragments_in_order() {
        assert!(format_matches("fig4_6_{name}_detail", "fig4_6_reno_detail"));
        assert!(format_matches("fig8_{label}", "fig8_exponential"));
        assert!(!format_matches("fig8_{label}", "fig9_uniform"));
        assert!(!format_matches(
            "fig4_6_{name}_detail",
            "fig4_6_reno_throughput"
        ));
        assert!(!format_matches(
            "fig4_6_{name}_detail",
            "fig4_6_reno_detail_x"
        ));
        // Too little fixed text to be meaningful.
        assert!(!format_matches("{t:.1}", "fig8_uniform"));
        assert!(!format_matches("f{flows}_{proto}", "fig8_uniform"));
        // A malformed template matches nothing.
        assert!(!format_matches("fig8_{label", "fig8_label"));
    }

    #[test]
    fn module_produces_accepts_literal_and_template() {
        let src = r#"fn f() { t.push(("fig10_fairness".to_string(), x)); let n = format!("fig10_{proto}"); }"#;
        assert!(module_produces(src, "fig10_fairness"));
        assert!(module_produces(src, "fig10_tcp"));
        assert!(!module_produces(src, "fig11_multihop"));
    }

    #[test]
    fn experiment_module_reads_the_campaign_path() {
        let registry = r#"
    ExperimentSpec {
        id: "trace",
        campaign: experiments::trace::campaign,
    },
    ExperimentSpec {
        id: "large_scale_100k",
        campaign: experiments::large_scale::campaign_100k,
    },
"#;
        assert_eq!(
            experiment_module(registry, "trace").as_deref(),
            Some("trace")
        );
        assert_eq!(
            experiment_module(registry, "large_scale_100k").as_deref(),
            Some("large_scale")
        );
        assert_eq!(experiment_module(registry, "large_scale"), None);
    }
}

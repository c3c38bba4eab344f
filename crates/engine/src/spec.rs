//! The wire form of a [`CampaignSpec`]: the JSON object an `ssr-serve/v1`
//! `submit` request carries.
//!
//! The spec names things instead of embedding them — configurations by
//! their registry name (`small`/`paper`/`d<N>`), retention policies and
//! suites by their stable names — so a request is small, auditable and
//! can never smuggle a configuration the server's generator would not
//! build itself.  Execution parameters that are the *server's* business
//! (worker threads, verbosity) are clamped or ignored server-side; the
//! parser here only validates shape.

use ssr_properties::Suite;

use crate::campaign::CampaignSpec;
use crate::job::{policy_by_name, Granularity, JobBudget, NamedConfig};
use crate::json::Json;

/// Serialises a campaign spec to its wire object.
///
/// `verbose` is intentionally not carried (stderr streaming is a local CLI
/// affordance).  Budget fields (`node_budget`,
/// `step_budget`, `deadline_ms`) are emitted only when set, so an
/// unbudgeted spec's wire object is byte-identical to pre-budget
/// `ssr-serve/v1` — and old servers, which parse leniently, simply ignore
/// the new keys.
pub fn spec_to_json(spec: &CampaignSpec) -> Json {
    let names = |items: Vec<String>| Json::Arr(items.into_iter().map(Json::Str).collect());
    let mut fields = vec![
        (
            "configs",
            names(spec.configs.iter().map(|c| c.name.clone()).collect()),
        ),
        (
            "policies",
            names(spec.policies.iter().map(|p| p.name.clone()).collect()),
        ),
        (
            "suites",
            names(spec.suites.iter().map(|s| s.name().to_owned()).collect()),
        ),
        ("granularity", Json::Str(spec.granularity.name().into())),
        ("threads", Json::Num(spec.threads as f64)),
    ];
    let budgets = [
        ("node_budget", spec.budget.node_budget),
        ("step_budget", spec.budget.step_budget),
        ("deadline_ms", spec.budget.deadline_ms),
    ];
    for (key, value) in budgets {
        if let Some(v) = value {
            fields.push((key, Json::Num(v as f64)));
        }
    }
    Json::obj(fields)
}

/// Parses a wire object back into a runnable spec (`verbose` off).
///
/// # Errors
/// Returns a human-readable message naming the first unknown config,
/// policy, suite or granularity — the server echoes it verbatim in
/// its protocol `error` response.
pub fn spec_from_json(v: &Json) -> Result<CampaignSpec, String> {
    let name_list = |key: &str| -> Result<Vec<String>, String> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("spec missing `{key}` array"))?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("non-string entry in `{key}`"))
            })
            .collect()
    };
    let configs = name_list("configs")?
        .iter()
        .map(|name| {
            NamedConfig::by_name(name)
                .ok_or_else(|| format!("unknown config `{name}` (try small, paper or d<N>)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let policies = name_list("policies")?
        .iter()
        .map(|name| policy_by_name(name).ok_or_else(|| format!("unknown policy `{name}`")))
        .collect::<Result<Vec<_>, _>>()?;
    let suites = name_list("suites")?
        .iter()
        .map(|name| Suite::parse(name).ok_or_else(|| format!("unknown suite `{name}`")))
        .collect::<Result<Vec<_>, _>>()?;
    if configs.is_empty() || policies.is_empty() || suites.is_empty() {
        return Err("spec needs at least one config, policy and suite".into());
    }
    let granularity = match v.get("granularity").and_then(Json::as_str) {
        Some(text) => {
            Granularity::parse(text).ok_or_else(|| format!("unknown granularity `{text}`"))?
        }
        None => Granularity::Suite,
    };
    // An `order` key (sent while the variable order was selectable), a
    // `partitioning` key (sent while the checker had selectable
    // strategies) and the `reorder`/`max_growth` pair (sent while the
    // kernel could sift) are ignored, whatever their values.
    let threads = v
        .get("threads")
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .unwrap_or(0);
    // Lenient: absent budget keys (any pre-budget client) mean unlimited.
    let budget = JobBudget {
        node_budget: v.get("node_budget").and_then(Json::as_u64),
        step_budget: v.get("step_budget").and_then(Json::as_u64),
        deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
    };
    Ok(CampaignSpec {
        configs,
        policies,
        suites,
        granularity,
        threads,
        budget,
        verbose: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::named_policies;

    fn sample() -> CampaignSpec {
        CampaignSpec {
            configs: vec![NamedConfig::small(), NamedConfig::sized(16)],
            policies: named_policies(),
            suites: Suite::ALL.to_vec(),
            granularity: Granularity::Assertion,
            threads: 2,
            budget: JobBudget {
                node_budget: Some(1 << 20),
                step_budget: None,
                deadline_ms: Some(30_000),
            },
            verbose: false,
        }
    }

    #[test]
    fn specs_round_trip_through_the_wire_form() {
        let spec = sample();
        let parsed = spec_from_json(&spec_to_json(&spec)).expect("parses");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn unknown_names_are_rejected_with_the_offender() {
        let mut bad = spec_to_json(&sample());
        if let Json::Obj(map) = &mut bad {
            map.insert(
                "policies".into(),
                Json::Arr(vec![Json::Str("frobnicate".into())]),
            );
        }
        let err = spec_from_json(&bad).expect_err("unknown policy");
        assert!(err.contains("frobnicate"), "{err}");
        assert!(spec_from_json(&Json::obj([])).is_err());
        // Tagged CLI config names are not wire names.
        let mut tagged = spec_to_json(&sample());
        if let Json::Obj(map) = &mut tagged {
            map.insert(
                "configs".into(),
                Json::Arr(vec![Json::Str("small+unsafe-reset-ifr".into())]),
            );
        }
        assert!(spec_from_json(&tagged).is_err());
    }

    #[test]
    fn empty_products_are_rejected() {
        let mut empty = spec_to_json(&sample());
        if let Json::Obj(map) = &mut empty {
            map.insert("suites".into(), Json::Arr(vec![]));
        }
        assert!(spec_from_json(&empty).is_err());
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let minimal = Json::obj([
            ("configs", Json::Arr(vec![Json::Str("small".into())])),
            (
                "policies",
                Json::Arr(vec![Json::Str("architectural".into())]),
            ),
            ("suites", Json::Arr(vec![Json::Str("two".into())])),
        ]);
        let spec = spec_from_json(&minimal).expect("parses");
        assert_eq!(spec.granularity, Granularity::Suite);
        assert_eq!(spec.threads, 0);
        assert!(
            spec.budget.is_unlimited(),
            "pre-budget wire objects parse as unlimited"
        );
        // Keys older clients still send are ignored, whatever their values
        // (compatibility inputs): the spec equals the default one, and its
        // wire form drops them.
        let mut old = minimal.clone();
        if let Json::Obj(map) = &mut old {
            map.insert("order".into(), Json::Str("reverse".into()));
            map.insert("partitioning".into(), Json::Str("sideways".into()));
            map.insert("reorder".into(), Json::Bool(true));
            map.insert("max_growth".into(), Json::Num(1.5));
        }
        let parsed = spec_from_json(&old).expect("old wire objects parse");
        assert_eq!(parsed, spec);
        let wire = spec_to_json(&parsed);
        for key in ["order", "partitioning", "reorder", "max_growth"] {
            assert!(wire.get(key).is_none(), "`{key}` is not written back");
        }
    }

    #[test]
    fn an_unbudgeted_spec_emits_no_budget_keys() {
        let mut spec = sample();
        spec.budget = JobBudget::default();
        let wire = spec_to_json(&spec);
        assert!(wire.get("node_budget").is_none());
        assert!(wire.get("step_budget").is_none());
        assert!(wire.get("deadline_ms").is_none());
    }
}

//! Circuit rule checking: flagging questionable constructs described as
//! pattern netlists.
//!
//! The paper (§I) proposes replacing hard-coded design-rule programs
//! with a *library of circuit patterns*: each questionable construct is
//! just a subcircuit, and flagging it is a SubGemini search. New rules
//! are added by writing netlists, not code.

use subgemini_netlist::Netlist;

use crate::matcher::find_all_many;
use crate::options::MatchOptions;

/// A reported rule violation: one instance of a rule's pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleViolation {
    /// The rule's name.
    pub rule: String,
    /// The rule's description.
    pub description: String,
    /// Names of the main-circuit devices forming the flagged instance.
    pub devices: Vec<String>,
}

struct Rule {
    name: String,
    description: String,
    pattern: Netlist,
}

/// A library of rules, each a pattern netlist with a description.
///
/// # Examples
///
/// ```
/// use subgemini::RuleChecker;
/// use subgemini_netlist::Netlist;
///
/// # fn main() -> Result<(), subgemini_netlist::NetlistError> {
/// // Rule: an NMOS pulling up to vdd (degraded-high pass device).
/// let mut bad = Netlist::new("nmos-to-vdd");
/// let mos = bad.add_mos_types();
/// let (g, d, vdd) = (bad.net("g"), bad.net("d"), bad.net("vdd"));
/// bad.mark_port(g);
/// bad.mark_port(d);
/// bad.mark_global(vdd);
/// bad.add_device("m", mos.nmos, &[g, vdd, d])?;
///
/// let mut checker = RuleChecker::new();
/// checker.add_rule("nmos-pullup", "nmos sources from vdd: degraded high", bad);
///
/// // Circuit with the bad construct.
/// let mut chip = Netlist::new("chip");
/// let mos = chip.add_mos_types();
/// let (a, q, vdd) = (chip.net("a"), chip.net("q"), chip.net("vdd"));
/// chip.mark_global(vdd);
/// chip.add_device("mbad", mos.nmos, &[a, vdd, q])?;
/// let violations = checker.check(&chip);
/// assert_eq!(violations.len(), 1);
/// assert_eq!(violations[0].devices, vec!["mbad"]);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct RuleChecker {
    rules: Vec<Rule>,
}

impl RuleChecker {
    /// Creates an empty rule library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule, matched with default options.
    pub fn add_rule(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        pattern: Netlist,
    ) -> &mut Self {
        self.rules.push(Rule {
            name: name.into(),
            description: description.into(),
            pattern,
        });
        self
    }

    /// Number of rules in the library.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Checks `main` against every rule, returning all violations in
    /// rule order. One sweep compiles and relabels `main` once for the
    /// whole library ([`find_all_many`](crate::find_all_many)).
    pub fn check(&self, main: &Netlist) -> Vec<RuleViolation> {
        let mut out = Vec::new();
        let patterns: Vec<&Netlist> = self.rules.iter().map(|r| &r.pattern).collect();
        let outcomes = find_all_many(&patterns, main, &MatchOptions::default());
        for (rule, found) in self.rules.iter().zip(outcomes) {
            for m in &found.instances {
                out.push(RuleViolation {
                    rule: rule.name.clone(),
                    description: rule.description.clone(),
                    devices: m
                        .device_set()
                        .iter()
                        .map(|&d| main.device(d).name().to_string())
                        .collect(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_library_reports_nothing() {
        let checker = RuleChecker::new();
        let chip = Netlist::new("chip");
        assert!(checker.check(&chip).is_empty());
        assert_eq!(checker.rule_count(), 0);
    }

    #[test]
    fn multiple_rules_report_in_order() {
        let mut chip = Netlist::new("chip");
        let mos = chip.add_mos_types();
        let (a, q, vdd, gnd) = (
            chip.net("a"),
            chip.net("q"),
            chip.net("vdd"),
            chip.net("gnd"),
        );
        chip.mark_global(vdd);
        chip.mark_global(gnd);
        chip.add_device("m1", mos.nmos, &[a, vdd, q]).unwrap(); // bad pullup
        chip.add_device("m2", mos.pmos, &[a, gnd, q]).unwrap(); // bad pulldown

        let nmos_pullup = {
            let mut p = Netlist::new("r1");
            let mos = p.add_mos_types();
            let (g, d, vdd) = (p.net("g"), p.net("d"), p.net("vdd"));
            p.mark_port(g);
            p.mark_port(d);
            p.mark_global(vdd);
            p.add_device("m", mos.nmos, &[g, vdd, d]).unwrap();
            p
        };
        let pmos_pulldown = {
            let mut p = Netlist::new("r2");
            let mos = p.add_mos_types();
            let (g, d, gnd) = (p.net("g"), p.net("d"), p.net("gnd"));
            p.mark_port(g);
            p.mark_port(d);
            p.mark_global(gnd);
            p.add_device("m", mos.pmos, &[g, gnd, d]).unwrap();
            p
        };
        let mut checker = RuleChecker::new();
        checker.add_rule("nmos-pullup", "degraded high", nmos_pullup);
        checker.add_rule("pmos-pulldown", "degraded low", pmos_pulldown);
        let v = checker.check(&chip);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].rule, "nmos-pullup");
        assert_eq!(v[0].devices, vec!["m1"]);
        assert_eq!(v[1].rule, "pmos-pulldown");
        assert_eq!(v[1].devices, vec!["m2"]);
    }

    /// Checking a many-rule library reports, rule by rule in rule order,
    /// the instances a search per rule finds.
    #[test]
    fn check_reports_what_a_search_per_rule_finds() {
        use subgemini_workloads::{cells, gen};
        let main = gen::tiled_chip(3, 3_000).netlist;
        let mut checker = RuleChecker::new();
        for cell in cells::library() {
            let name = cell.name().to_string();
            checker.add_rule(name.clone(), format!("pattern `{name}`"), cell);
        }
        let mut expected = Vec::new();
        for rule in &checker.rules {
            let found = crate::find_all(&rule.pattern, &main, &MatchOptions::default());
            for m in &found.instances {
                let devices = m.device_set();
                expected.push(RuleViolation {
                    rule: rule.name.clone(),
                    description: rule.description.clone(),
                    devices: devices
                        .iter()
                        .map(|&d| main.device(d).name().into())
                        .collect(),
                });
            }
        }
        let mut rules: Vec<&str> = expected.iter().map(|v| v.rule.as_str()).collect();
        rules.dedup();
        assert!(rules.len() > 3, "{rules:?}");
        assert_eq!(checker.check(&main), expected);
    }
}

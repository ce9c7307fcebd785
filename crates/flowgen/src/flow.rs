//! Synthesis flows: ordered sequences of transformations.

use serde::{Deserialize, Serialize};
use synth::Transform;

/// A synthesis flow: the ordered sequence of transformations applied to a design
/// (Definition 1 / 2 of the paper).
///
/// ```
/// use flowgen::Flow;
/// use synth::Transform;
///
/// let flow = Flow::new(vec![Transform::Balance, Transform::Rewrite]);
/// assert_eq!(flow.len(), 2);
/// assert_eq!(flow.to_script(), "balance; rewrite");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Flow {
    transforms: Vec<Transform>,
}

impl Flow {
    /// Creates a flow from a sequence of transformations.
    pub fn new(transforms: Vec<Transform>) -> Self {
        Flow { transforms }
    }

    /// The transformation sequence.
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// Flow length `L`.
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// Returns `true` for the empty flow.
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Checks whether this flow is a valid m-repetition flow over the first
    /// `n` transformations: every transformation appears exactly `m` times.
    pub fn is_m_repetition(&self, n: usize, m: usize) -> bool {
        if self.transforms.len() != n * m {
            return false;
        }
        Transform::ALL[..n]
            .iter()
            .all(|t| self.transforms.iter().filter(|&&x| x == *t).count() == m)
    }

    /// Renders the flow as an ABC-style script (`cmd; cmd; …`).
    pub fn to_script(&self) -> String {
        floweval::flow_script(&self.transforms)
    }

    /// The named flow presets, in a stable order.  They borrow the names of
    /// ABC's `abc.rc` aliases, but only `compress2` is the same script:
    ///
    /// * `compress2` = `b; rw; rf; b; rw; rwz; b; rfz; rwz; b`, which is
    ///   ABC's `resyn2` (and its `compress2` without `-l`).
    /// * `resyn` = `b; rw; rw; b; rw`; ABC's is `b; rw; rwz; b; rwz; b`.
    /// * `resyn2` = `b; rw; rf; b; rwz; rfz`; ABC's is the script above.
    /// * `compress` = `b; rw; rwz; b; rw`; ABC's is
    ///   `b -l; rw -l; rwz -l; b -l; rwz -l; b -l`.
    /// * `resyn3` = `b; restructure; rwz; b; rfz; restructure`; ABC's runs
    ///   resubstitution (`rs`), which this transformation set lacks.
    ///
    /// These are the flows users reach for by name (`flowc run --flow resyn2`)
    /// and the fixed workloads of the benchmark's `qor_area_ratio`, so they
    /// stay as they are.
    pub fn presets() -> &'static [(&'static str, &'static [Transform])] {
        use Transform::*;
        &[
            ("compress", &[Balance, Rewrite, RewriteZ, Balance, Rewrite]),
            (
                "compress2",
                &[
                    Balance, Rewrite, Refactor, Balance, Rewrite, RewriteZ, Balance, RefactorZ,
                    RewriteZ, Balance,
                ],
            ),
            ("resyn", &[Balance, Rewrite, Rewrite, Balance, Rewrite]),
            (
                "resyn2",
                &[Balance, Rewrite, Refactor, Balance, RewriteZ, RefactorZ],
            ),
            (
                "resyn3",
                &[
                    Balance,
                    Restructure,
                    RewriteZ,
                    Balance,
                    RefactorZ,
                    Restructure,
                ],
            ),
        ]
    }

    /// Looks up a named preset (see [`Flow::presets`]).
    pub fn named(name: &str) -> Option<Flow> {
        Flow::presets()
            .iter()
            .find(|(preset, _)| *preset == name)
            .map(|(_, transforms)| Flow::new(transforms.to_vec()))
    }

    /// Parses a flow given either as a preset name or as an ABC-style script.
    ///
    /// # Errors
    ///
    /// Returns the offending command string when the input is neither a known
    /// preset nor a parsable script.
    pub fn parse(input: &str) -> Result<Flow, String> {
        match Flow::named(input.trim()) {
            Some(flow) => Ok(flow),
            None => Flow::parse_script(input),
        }
    }

    /// Parses an ABC-style script back into a flow.  Commands are the long
    /// names [`Flow::to_script`] renders or ABC's aliases (`b`, `rw`, `rf`,
    /// `rwz`, `rfz`; see [`Transform::from_command`]).
    ///
    /// # Errors
    ///
    /// Returns the offending command string when it does not name a known
    /// transformation.
    pub fn parse_script(script: &str) -> Result<Flow, String> {
        script
            .split(';')
            .map(str::trim)
            .filter(|cmd| !cmd.is_empty())
            .map(|cmd| Transform::from_command(cmd).ok_or_else(|| cmd.to_string()))
            .collect::<Result<_, _>>()
            .map(Flow::new)
    }
}

impl std::fmt::Display for Flow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_script())
    }
}

impl AsRef<[Transform]> for Flow {
    fn as_ref(&self) -> &[Transform] {
        &self.transforms
    }
}

impl FromIterator<Transform> for Flow {
    fn from_iter<I: IntoIterator<Item = Transform>>(iter: I) -> Self {
        Flow::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_roundtrip() {
        let flow = Flow::new(vec![
            Transform::Balance,
            Transform::RewriteZ,
            Transform::RefactorZ,
            Transform::Restructure,
        ]);
        let script = flow.to_script();
        assert_eq!(script, "balance; rewrite -z; refactor -z; restructure");
        let parsed = Flow::parse_script(&script).expect("valid script");
        assert_eq!(parsed, flow);
    }

    #[test]
    fn abc_aliases_parse_to_the_long_names() {
        let flow = Flow::parse_script("b; rw; rf; rwz; rfz").expect("aliases");
        assert_eq!(
            flow,
            Flow::parse_script("balance; rewrite; refactor; rewrite -z; refactor -z").unwrap()
        );
        assert_eq!(
            flow.to_script(),
            "balance; rewrite; refactor; rewrite -z; refactor -z"
        );
        assert_eq!(Flow::parse_script("b; rs").unwrap_err(), "rs");
    }

    #[test]
    fn parse_rejects_unknown_commands() {
        let err = Flow::parse_script("balance; strash").unwrap_err();
        assert_eq!(err, "strash");
    }

    #[test]
    fn m_repetition_check() {
        let flow: Flow = Transform::ALL.into_iter().collect();
        assert!(flow.is_m_repetition(6, 1));
        assert!(!flow.is_m_repetition(6, 2));
        assert!(!flow.is_m_repetition(5, 1));
        let double: Flow = Transform::ALL.into_iter().chain(Transform::ALL).collect();
        assert!(double.is_m_repetition(6, 2));
    }

    #[test]
    fn empty_flow() {
        let f = Flow::new(vec![]);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.to_script(), "");
        assert_eq!(Flow::parse_script("").expect("empty ok"), f);
    }

    #[test]
    fn display_matches_script() {
        let flow = Flow::new(vec![Transform::Rewrite]);
        assert_eq!(flow.to_string(), "rewrite");
    }

    #[test]
    fn presets_are_named_nonempty_and_script_roundtrippable() {
        assert!(!Flow::presets().is_empty());
        for (name, transforms) in Flow::presets() {
            let flow = Flow::named(name).expect("preset resolves");
            assert_eq!(flow.transforms(), *transforms);
            assert!(!flow.is_empty(), "preset `{name}` is empty");
            assert_eq!(Flow::parse_script(&flow.to_script()).unwrap(), flow);
        }
        assert!(Flow::named("dch").is_none());
    }

    #[test]
    fn parse_accepts_presets_and_scripts() {
        assert_eq!(
            Flow::parse("resyn2").unwrap(),
            Flow::named("resyn2").unwrap()
        );
        assert_eq!(
            Flow::parse("balance; rewrite -z").unwrap(),
            Flow::new(vec![Transform::Balance, Transform::RewriteZ])
        );
        assert_eq!(Flow::parse("unknown-thing").unwrap_err(), "unknown-thing");
    }
}

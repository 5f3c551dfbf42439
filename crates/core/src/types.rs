//! Identifier and classification types shared across the workspace.

use std::fmt;

/// Identifies a deployed serverless function (a code package; §1 of the
/// paper). Invocations of the same function share a `FunctionId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(u32);

impl FunctionId {
    /// Creates a function id from its raw index.
    pub const fn new(raw: u32) -> Self {
        FunctionId(raw)
    }

    /// The raw index (useful for dense per-function tables).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Identifies a container instance inside a worker's pool.
///
/// The id is *generational*: the low 32 bits name the pool slot the
/// container occupies, the high 32 bits its creation sequence number.
/// Slot reuse therefore never aliases ids, slot extraction is one mask,
/// and — because the creation sequence occupies the most-significant
/// bits — the derived `Ord` is exactly creation order, which every
/// ordered index and deterministic iteration in the simulator relies
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(u64);

impl ContainerId {
    /// Creates a container id from its raw packed value.
    pub const fn new(raw: u64) -> Self {
        ContainerId(raw)
    }

    /// Creates a container id from a creation sequence number and a
    /// pool slot.
    pub const fn from_parts(seq: u32, slot: u32) -> Self {
        ContainerId(((seq as u64) << 32) | slot as u64)
    }

    /// The raw packed value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The pool slot this container occupies.
    pub const fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The creation sequence number.
    pub const fn seq(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctr#{}", self.0)
    }
}

/// Language runtimes used by the paper's 20-function workload (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Language {
    /// Node.js runtime.
    NodeJs,
    /// CPython runtime.
    Python,
    /// JVM runtime.
    Java,
}

impl Language {
    /// All supported runtimes, in catalog order.
    pub const ALL: [Language; 3] = [Language::NodeJs, Language::Python, Language::Java];

    /// Dense index of this runtime in [`Language::ALL`] — the key used
    /// by per-language tables (history groups, pool indices).
    pub const fn index(self) -> usize {
        match self {
            Language::NodeJs => 0,
            Language::Python => 1,
            Language::Java => 2,
        }
    }

    /// Short suffix used in the paper's function names (`-Js`, `-Py`,
    /// `-Java`).
    pub fn suffix(self) -> &'static str {
        match self {
            Language::NodeJs => "Js",
            Language::Python => "Py",
            Language::Java => "Java",
        }
    }
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Language::NodeJs => "Node.js",
            Language::Python => "Python",
            Language::Java => "Java",
        };
        f.write_str(s)
    }
}

/// Application domains from Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Web applications (Auto Complete, Uploader, ...).
    WebApp,
    /// Multimedia (Thumbnailer, Video Processing, ...).
    Multimedia,
    /// Scientific computing (Graph BFS/MST/Pagerank, DNA Visualization).
    ScientificComputing,
    /// Machine learning (Image Recognition, Sentiment Analysis).
    MachineLearning,
    /// Data analysis (the Java Data* suite).
    DataAnalysis,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Domain::WebApp => "Web App",
            Domain::Multimedia => "Multimedia",
            Domain::ScientificComputing => "Scientific Computing",
            Domain::MachineLearning => "Machine Learning",
            Domain::DataAnalysis => "Data Analysis",
        };
        f.write_str(s)
    }
}

/// The three container layers in bottom-up order (§2.3).
///
/// The derived `Ord` follows the stack order: `Bare < Lang < User`, i.e.
/// a later variant has strictly more layers installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Infrastructure only (network, logging, proxy); compatible with
    /// any function.
    Bare,
    /// Bare + language runtime; compatible with same-language functions.
    Lang,
    /// Lang + user deployment package; compatible with one function.
    User,
}

impl Layer {
    /// All layers, bottom-up.
    pub const ALL: [Layer; 3] = [Layer::Bare, Layer::Lang, Layer::User];

    /// The layer above this one (installing one more layer), or `None`
    /// for [`Layer::User`].
    pub fn upgrade(self) -> Option<Layer> {
        match self {
            Layer::Bare => Some(Layer::Lang),
            Layer::Lang => Some(Layer::User),
            Layer::User => None,
        }
    }

    /// The layer below this one (peeling the top layer off), or `None`
    /// for [`Layer::Bare`].
    pub fn downgrade(self) -> Option<Layer> {
        match self {
            Layer::User => Some(Layer::Lang),
            Layer::Lang => Some(Layer::Bare),
            Layer::Bare => None,
        }
    }

    /// Number of layers installed (1 for Bare, 3 for User).
    pub fn depth(self) -> usize {
        match self {
            Layer::Bare => 1,
            Layer::Lang => 2,
            Layer::User => 3,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::Bare => "Bare",
            Layer::Lang => "Lang",
            Layer::User => "User",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_stack_ordering() {
        assert!(Layer::Bare < Layer::Lang);
        assert!(Layer::Lang < Layer::User);
    }

    #[test]
    fn upgrade_downgrade_are_inverse() {
        for layer in Layer::ALL {
            if let Some(up) = layer.upgrade() {
                assert_eq!(up.downgrade(), Some(layer));
            }
            if let Some(down) = layer.downgrade() {
                assert_eq!(down.upgrade(), Some(layer));
            }
        }
        assert_eq!(Layer::User.upgrade(), None);
        assert_eq!(Layer::Bare.downgrade(), None);
    }

    #[test]
    fn depth_counts_layers() {
        assert_eq!(Layer::Bare.depth(), 1);
        assert_eq!(Layer::Lang.depth(), 2);
        assert_eq!(Layer::User.depth(), 3);
    }

    #[test]
    fn ids_display() {
        assert_eq!(format!("{}", FunctionId::new(3)), "fn#3");
        assert_eq!(format!("{}", ContainerId::new(7)), "ctr#7");
    }

    #[test]
    fn container_id_packs_generation_and_slot() {
        let id = ContainerId::from_parts(5, 9);
        assert_eq!(id.seq(), 5);
        assert_eq!(id.slot(), 9);
        assert_eq!(id.raw(), (5 << 32) | 9);
        // Ord is creation order: a later generation compares greater
        // regardless of slot.
        assert!(ContainerId::from_parts(6, 0) > ContainerId::from_parts(5, 1_000));
    }

    #[test]
    fn language_suffixes_match_paper() {
        assert_eq!(Language::NodeJs.suffix(), "Js");
        assert_eq!(Language::Python.suffix(), "Py");
        assert_eq!(Language::Java.suffix(), "Java");
    }
}

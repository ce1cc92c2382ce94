//! Ordered labeled trees and the Zhang–Shasha tree edit distance.
//!
//! The paper analyses skeleton graphs with "the Graph edit distance"
//! (Sec. V-D) and cites Pawlik & Augsten's tree-edit-distance work [48].
//! General graph edit distance is NP-hard; skeletons, however, are trees
//! (a silhouette skeleton is an acyclic stick figure), so we model them as
//! ordered labeled trees and use the classic Zhang–Shasha algorithm — an
//! exact `O(n² · min-depth²)` dynamic program and a true metric under unit
//! costs.

use crate::{universal_code_length, Metric};

/// A node of an ordered labeled tree, used to *build* trees ergonomically.
/// Compile to an [`OrderedTree`] before computing distances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Arbitrary label; equality of labels is what the unit-cost model sees.
    pub label: u32,
    /// Ordered children, left to right.
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// A leaf with the given label.
    pub fn new(label: u32) -> Self {
        Self {
            label,
            children: Vec::new(),
        }
    }

    /// An internal node with the given label and children.
    pub fn with_children(label: u32, children: Vec<TreeNode>) -> Self {
        Self { label, children }
    }

    /// Appends a child, returning `self` for chaining.
    pub fn child(mut self, c: TreeNode) -> Self {
        self.children.push(c);
        self
    }

    /// Number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TreeNode::size).sum::<usize>()
    }
}

/// An ordered labeled tree compiled into the postorder arrays the
/// Zhang–Shasha DP consumes: labels, leftmost-leaf indices and keyroots.
///
/// Compiling once and reusing the compiled form matters: a metric tree
/// probes the same elements against many queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedTree {
    /// Node labels in postorder.
    labels: Vec<u32>,
    /// `lml[i]`: postorder index of the leftmost leaf of the subtree at `i`.
    lml: Vec<usize>,
    /// Keyroots in increasing postorder index.
    keyroots: Vec<usize>,
}

impl OrderedTree {
    /// Compiles a [`TreeNode`] into postorder form.
    pub fn from_node(root: &TreeNode) -> Self {
        let mut labels = Vec::new();
        let mut lml = Vec::new();
        // Iterative postorder: stack of (node, leftmost-leaf-so-far marker).
        // Returns the postorder index of `node`'s leftmost leaf.
        fn walk(node: &TreeNode, labels: &mut Vec<u32>, lml: &mut Vec<usize>) -> usize {
            let mut leftmost = usize::MAX;
            for (k, c) in node.children.iter().enumerate() {
                let lm = walk(c, labels, lml);
                if k == 0 {
                    leftmost = lm;
                }
            }
            let idx = labels.len();
            if leftmost == usize::MAX {
                leftmost = idx; // leaf: its own leftmost leaf
            }
            labels.push(node.label);
            lml.push(leftmost);
            leftmost
        }
        walk(root, &mut labels, &mut lml);
        let keyroots = Self::compute_keyroots(&lml);
        Self {
            labels,
            lml,
            keyroots,
        }
    }

    /// The empty tree (distance to it is the size of the other tree).
    pub fn empty() -> Self {
        Self {
            labels: Vec::new(),
            lml: Vec::new(),
            keyroots: Vec::new(),
        }
    }

    /// A node is a keyroot iff it is the highest node with its leftmost
    /// leaf, i.e. the root or any node with a left sibling.
    fn compute_keyroots(lml: &[usize]) -> Vec<usize> {
        let n = lml.len();
        let mut seen = vec![false; n];
        let mut keyroots = Vec::new();
        // Scan from the root (last postorder index) down.
        for i in (0..n).rev() {
            if !seen[lml[i]] {
                seen[lml[i]] = true;
                keyroots.push(i);
            }
        }
        keyroots.sort_unstable();
        keyroots
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// Exact Zhang–Shasha tree edit distance with unit costs
    /// (insert = delete = 1, relabel = 1 if labels differ else 0).
    pub fn edit_distance(&self, other: &Self) -> usize {
        let (n1, n2) = (self.size(), other.size());
        if n1 == 0 {
            return n2;
        }
        if n2 == 0 {
            return n1;
        }
        let mut td = vec![0usize; n1 * n2]; // tree-distance table
        let mut fd = vec![0usize; (n1 + 1) * (n2 + 1)]; // forest scratch
        let w2 = n2 + 1;
        for &k1 in &self.keyroots {
            for &k2 in &other.keyroots {
                let (l1, l2) = (self.lml[k1], other.lml[k2]);
                // Forest indices are offset so that (l1-1, l2-1) maps to 0.
                // fd[(i - l1 + 1) * w2 + (j - l2 + 1)] holds the distance of
                // forests self[l1..=i] and other[l2..=j].
                fd[0] = 0;
                for i in l1..=k1 {
                    let fi = i - l1 + 1;
                    fd[fi * w2] = fd[(fi - 1) * w2] + 1; // delete i
                }
                for j in l2..=k2 {
                    let fj = j - l2 + 1;
                    fd[fj] = fd[fj - 1] + 1; // insert j
                }
                for i in l1..=k1 {
                    let fi = i - l1 + 1;
                    for j in l2..=k2 {
                        let fj = j - l2 + 1;
                        let del = fd[(fi - 1) * w2 + fj] + 1;
                        let ins = fd[fi * w2 + fj - 1] + 1;
                        if self.lml[i] == l1 && other.lml[j] == l2 {
                            // Both forests are whole trees: record tree dist.
                            let ren = fd[(fi - 1) * w2 + fj - 1]
                                + usize::from(self.labels[i] != other.labels[j]);
                            let d = del.min(ins).min(ren);
                            fd[fi * w2 + fj] = d;
                            td[i * n2 + j] = d;
                        } else {
                            // Jump over the already-solved subtree pair.
                            let pi = self.lml[i] - l1; // == lml(i)-1 - l1 + 1
                            let pj = other.lml[j] - l2;
                            let sub = fd[pi * w2 + pj] + td[i * n2 + j];
                            fd[fi * w2 + fj] = del.min(ins).min(sub);
                        }
                    }
                }
            }
        }
        td[(n1 - 1) * n2 + (n2 - 1)]
    }
}

impl From<&TreeNode> for OrderedTree {
    fn from(n: &TreeNode) -> Self {
        OrderedTree::from_node(n)
    }
}

/// Zhang–Shasha tree edit distance as a [`Metric`] over compiled
/// [`OrderedTree`]s — the skeleton-graph distance of the paper's Fig. 1(iii).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeEditDistance;

impl Metric<OrderedTree> for TreeEditDistance {
    #[inline]
    fn distance(&self, a: &OrderedTree, b: &OrderedTree) -> f64 {
        a.edit_distance(b) as f64
    }

    /// Analogue of the paper's word cost (Def. 7): an edit step needs the
    /// operation (3 choices), the label, and the node position:
    /// `⟨3⟩ + ⟨#distinct labels⟩ + ⟨max tree size⟩`.
    fn transformation_cost(&self, data: &[OrderedTree]) -> f64 {
        let mut labels: Vec<u32> = data.iter().flat_map(|t| t.labels.clone()).collect();
        labels.sort_unstable();
        labels.dedup();
        let distinct = labels.len().max(1) as u64;
        let largest = data.iter().map(OrderedTree::size).max().unwrap_or(1).max(1) as u64;
        universal_code_length(3) + universal_code_length(distinct) + universal_code_length(largest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(l: u32) -> TreeNode {
        TreeNode::new(l)
    }

    /// The classic Zhang–Shasha example:
    /// T1 = f(d(a, c(b)), e), T2 = f(c(d(a, b)), e); distance 2.
    fn zs_pair() -> (OrderedTree, OrderedTree) {
        let t1 = TreeNode::with_children(
            0, // f
            vec![
                TreeNode::with_children(
                    1,
                    vec![leaf(2), TreeNode::with_children(3, vec![leaf(4)])],
                ), // d(a, c(b))
                leaf(5), // e
            ],
        );
        let t2 = TreeNode::with_children(
            0, // f
            vec![
                TreeNode::with_children(
                    3,
                    vec![TreeNode::with_children(1, vec![leaf(2), leaf(4)])],
                ), // c(d(a, b))
                leaf(5), // e
            ],
        );
        (OrderedTree::from_node(&t1), OrderedTree::from_node(&t2))
    }

    #[test]
    fn zhang_shasha_classic_example() {
        let (a, b) = zs_pair();
        assert_eq!(a.edit_distance(&b), 2);
        assert_eq!(b.edit_distance(&a), 2);
    }

    #[test]
    fn identical_trees_have_zero_distance() {
        let (a, _) = zs_pair();
        assert_eq!(a.edit_distance(&a), 0);
    }

    #[test]
    fn distance_to_empty_is_size() {
        let (a, _) = zs_pair();
        assert_eq!(a.edit_distance(&OrderedTree::empty()), a.size());
        assert_eq!(OrderedTree::empty().edit_distance(&a), a.size());
        assert_eq!(OrderedTree::empty().edit_distance(&OrderedTree::empty()), 0);
    }

    #[test]
    fn single_relabel_costs_one() {
        let a = OrderedTree::from_node(&leaf(1));
        let b = OrderedTree::from_node(&leaf(2));
        assert_eq!(a.edit_distance(&b), 1);
    }

    #[test]
    fn insert_chain_costs_length() {
        // a vs a->b->c (chain): two insertions.
        let a = OrderedTree::from_node(&leaf(1));
        let chain = TreeNode::with_children(1, vec![TreeNode::with_children(2, vec![leaf(3)])]);
        let b = OrderedTree::from_node(&chain);
        assert_eq!(a.edit_distance(&b), 2);
    }

    #[test]
    fn order_matters_for_ordered_trees() {
        let ab = OrderedTree::from_node(&TreeNode::with_children(0, vec![leaf(1), leaf(2)]));
        let ba = OrderedTree::from_node(&TreeNode::with_children(0, vec![leaf(2), leaf(1)]));
        // Swapping two distinct leaves costs 2 relabels.
        assert_eq!(ab.edit_distance(&ba), 2);
    }

    #[test]
    fn keyroots_of_chain_is_root_only() {
        let chain = TreeNode::with_children(1, vec![TreeNode::with_children(2, vec![leaf(3)])]);
        let t = OrderedTree::from_node(&chain);
        assert_eq!(t.keyroots, vec![2]); // only the root (postorder last)
    }

    #[test]
    fn keyroots_of_star_are_all_but_first_child_plus_root() {
        // root with 3 leaves: leaves at postorder 0,1,2; root at 3.
        let star = TreeNode::with_children(0, vec![leaf(1), leaf(2), leaf(3)]);
        let t = OrderedTree::from_node(&star);
        assert_eq!(t.keyroots, vec![1, 2, 3]);
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let trees: Vec<OrderedTree> = vec![
            OrderedTree::from_node(&leaf(1)),
            OrderedTree::from_node(&TreeNode::with_children(1, vec![leaf(2)])),
            OrderedTree::from_node(&TreeNode::with_children(0, vec![leaf(1), leaf(2)])),
            zs_pair().0,
            zs_pair().1,
            OrderedTree::empty(),
        ];
        for a in &trees {
            for b in &trees {
                for c in &trees {
                    let ab = a.edit_distance(b);
                    let bc = b.edit_distance(c);
                    let ac = a.edit_distance(c);
                    assert!(ac <= ab + bc, "triangle violated");
                }
            }
        }
    }

    #[test]
    fn metric_wrapper_and_cost() {
        let (a, b) = zs_pair();
        assert_eq!(TreeEditDistance.distance(&a, &b), 2.0);
        let data = vec![a, b];
        let t = TreeEditDistance.transformation_cost(&data);
        // 6 distinct labels, max size 6: <3> + <6> + <6>
        let want = universal_code_length(3) + 2.0 * universal_code_length(6);
        assert!((t - want).abs() < 1e-12);
    }
}

#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "storage/slotted_page.h"

namespace tcob {

namespace {

constexpr uint32_t kNodeHeader = 12;
constexpr uint32_t kNodeCapacity = kPageDataSize - kNodeHeader;
constexpr uint32_t kBTreeMagic = 0x54424954;  // "TBIT"

// Meta page field offsets.
constexpr uint32_t kMetaMagicOff = 8;
constexpr uint32_t kMetaRootOff = 12;
constexpr uint32_t kMetaCountOff = 16;

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Open(BufferPool* pool,
                                           const std::string& name) {
  TCOB_ASSIGN_OR_RETURN(FileId file, pool->disk()->OpenFile(name));
  std::unique_ptr<BTree> tree(new BTree(pool, file));
  TCOB_RETURN_NOT_OK(tree->LoadOrFormat(name));
  return tree;
}

Status BTree::LoadOrFormat(const std::string& name) {
  TCOB_ASSIGN_OR_RETURN(PageNo pages, pool_->disk()->NumPages(file_));
  if (pages == 0) {
    TCOB_ASSIGN_OR_RETURN(Page * meta, pool_->NewPage(file_));
    PageGuard meta_guard(pool_, meta);
    memset(meta->data, 0, kPageSize);
    meta->data[0] = static_cast<char>(PageType::kMeta);
    EncodeFixed32(meta->data + kMetaMagicOff, kBTreeMagic);
    meta_guard.MarkDirty();
    // Empty tree: root is a fresh empty leaf.
    TCOB_ASSIGN_OR_RETURN(root_, AllocNode());
    Node leaf;
    TCOB_RETURN_NOT_OK(WriteNode(root_, leaf));
    entry_count_ = 0;
    return SaveMeta();
  }
  TCOB_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(file_, 0));
  PageGuard guard(pool_, meta);
  if (DecodeFixed32(meta->data + kMetaMagicOff) != kBTreeMagic) {
    return Status::Corruption("btree meta magic mismatch in " + name);
  }
  root_ = DecodeFixed32(meta->data + kMetaRootOff);
  entry_count_ = DecodeFixed64(meta->data + kMetaCountOff);
  return Status::OK();
}

Status BTree::SaveMeta() {
  TCOB_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(file_, 0));
  PageGuard guard(pool_, meta);
  EncodeFixed32(meta->data + kMetaRootOff, root_);
  EncodeFixed64(meta->data + kMetaCountOff, entry_count_);
  guard.MarkDirty();
  return Status::OK();
}

Result<PageNo> BTree::AllocNode() {
  TCOB_ASSIGN_OR_RETURN(Page * p, pool_->NewPage(file_));
  PageGuard guard(pool_, p);
  p->data[0] = static_cast<char>(PageType::kIndex);
  guard.MarkDirty();
  return p->page_no;
}

Result<BTree::Node> BTree::ReadNode(PageNo page) const {
  TCOB_ASSIGN_OR_RETURN(Page * p, pool_->FetchPage(file_, page));
  PageGuard guard(pool_, p);
  if (static_cast<PageType>(static_cast<uint8_t>(p->data[0])) !=
      PageType::kIndex) {
    return Status::Corruption("page " + std::to_string(page) +
                              " is not a btree node");
  }
  Node node;
  node.is_leaf = p->data[1] != 0;
  node.next_leaf = DecodeFixed32(p->data + 4);
  uint32_t payload_len = DecodeFixed32(p->data + 8);
  Slice in(p->data + kNodeHeader, payload_len);
  uint32_t n_keys;
  TCOB_RETURN_NOT_OK(GetVarint32(&in, &n_keys));
  node.keys.reserve(n_keys);
  if (node.is_leaf) {
    node.values.reserve(n_keys);
    for (uint32_t i = 0; i < n_keys; ++i) {
      Slice key;
      uint64_t value;
      TCOB_RETURN_NOT_OK(GetLengthPrefixed(&in, &key));
      TCOB_RETURN_NOT_OK(GetVarint64(&in, &value));
      node.keys.push_back(key.ToString());
      node.values.push_back(value);
    }
  } else {
    node.children.reserve(n_keys + 1);
    for (uint32_t i = 0; i < n_keys + 1; ++i) {
      uint32_t child;
      TCOB_RETURN_NOT_OK(GetFixed32(&in, &child));
      node.children.push_back(child);
    }
    for (uint32_t i = 0; i < n_keys; ++i) {
      Slice key;
      TCOB_RETURN_NOT_OK(GetLengthPrefixed(&in, &key));
      node.keys.push_back(key.ToString());
    }
  }
  return node;
}

Status BTree::WriteNode(PageNo page, const Node& node) {
  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(node.keys.size()));
  if (node.is_leaf) {
    for (size_t i = 0; i < node.keys.size(); ++i) {
      PutLengthPrefixed(&payload, node.keys[i]);
      PutVarint64(&payload, node.values[i]);
    }
  } else {
    for (PageNo child : node.children) PutFixed32(&payload, child);
    for (const std::string& key : node.keys) PutLengthPrefixed(&payload, key);
  }
  if (payload.size() > kNodeCapacity) {
    return Status::Internal("btree node overflow: " +
                            std::to_string(payload.size()));
  }
  TCOB_ASSIGN_OR_RETURN(Page * p, pool_->FetchPage(file_, page));
  PageGuard guard(pool_, p);
  p->data[0] = static_cast<char>(PageType::kIndex);
  p->data[1] = node.is_leaf ? 1 : 0;
  EncodeFixed16(p->data + 2, 0);
  EncodeFixed32(p->data + 4, node.next_leaf);
  EncodeFixed32(p->data + 8, static_cast<uint32_t>(payload.size()));
  memcpy(p->data + kNodeHeader, payload.data(), payload.size());
  guard.MarkDirty();
  return Status::OK();
}

size_t BTree::NodeSize(const Node& node) {
  size_t size = VarintLength(node.keys.size());
  for (const std::string& key : node.keys) {
    size += VarintLength(key.size()) + key.size();
  }
  if (node.is_leaf) {
    for (uint64_t v : node.values) size += VarintLength(v);
  } else {
    size += 4 * node.children.size();
  }
  return size;
}

int BTree::LowerBound(const Node& node, const Slice& key) {
  int lo = 0, hi = static_cast<int>(node.keys.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Slice(node.keys[mid]).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

/// Index of the child to descend into for `key` in an internal node:
/// the number of separator keys <= key.
int ChildIndex(const std::vector<std::string>& keys, const Slice& key) {
  int lo = 0, hi = static_cast<int>(keys.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Slice(keys[mid]).compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Result<BTree::SplitResult> BTree::InsertRec(PageNo page, const Slice& key,
                                            uint64_t value, bool* replaced) {
  TCOB_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  if (node.is_leaf) {
    int pos = LowerBound(node, key);
    if (pos < static_cast<int>(node.keys.size()) &&
        Slice(node.keys[pos]) == key) {
      node.values[pos] = value;
      *replaced = true;
    } else {
      node.keys.insert(node.keys.begin() + pos, key.ToString());
      node.values.insert(node.values.begin() + pos, value);
      *replaced = false;
    }
  } else {
    int idx = ChildIndex(node.keys, key);
    TCOB_ASSIGN_OR_RETURN(SplitResult child_split,
                          InsertRec(node.children[idx], key, value, replaced));
    if (!child_split.split) {
      return SplitResult{};
    }
    node.keys.insert(node.keys.begin() + idx, child_split.sep_key);
    node.children.insert(node.children.begin() + idx + 1,
                         child_split.right_page);
  }

  if (NodeSize(node) <= kNodeCapacity) {
    TCOB_RETURN_NOT_OK(WriteNode(page, node));
    return SplitResult{};
  }

  // Split: move the upper half into a fresh right sibling.
  SplitResult result;
  result.split = true;
  Node right;
  right.is_leaf = node.is_leaf;
  if (node.is_leaf) {
    size_t mid = node.keys.size() / 2;
    right.keys.assign(node.keys.begin() + mid, node.keys.end());
    right.values.assign(node.values.begin() + mid, node.values.end());
    node.keys.resize(mid);
    node.values.resize(mid);
    result.sep_key = right.keys.front();
    TCOB_ASSIGN_OR_RETURN(result.right_page, AllocNode());
    right.next_leaf = node.next_leaf;
    node.next_leaf = result.right_page;
  } else {
    size_t mid = node.keys.size() / 2;
    result.sep_key = node.keys[mid];
    right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
    right.children.assign(node.children.begin() + mid + 1,
                          node.children.end());
    node.keys.resize(mid);
    node.children.resize(mid + 1);
    TCOB_ASSIGN_OR_RETURN(result.right_page, AllocNode());
  }
  TCOB_RETURN_NOT_OK(WriteNode(page, node));
  TCOB_RETURN_NOT_OK(WriteNode(result.right_page, right));
  return result;
}

Status BTree::Put(const Slice& key, uint64_t value) {
  if (key.size() > 1024) {
    return Status::InvalidArgument("btree key too long");
  }
  std::unique_lock<std::shared_mutex> lock(latch_);
  bool replaced = false;
  TCOB_ASSIGN_OR_RETURN(SplitResult split,
                        InsertRec(root_, key, value, &replaced));
  if (split.split) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split.sep_key);
    new_root.children.push_back(root_);
    new_root.children.push_back(split.right_page);
    TCOB_ASSIGN_OR_RETURN(PageNo new_root_page, AllocNode());
    TCOB_RETURN_NOT_OK(WriteNode(new_root_page, new_root));
    root_ = new_root_page;
  }
  if (!replaced) ++entry_count_;
  return SaveMeta();
}

Result<PageNo> BTree::FindLeaf(const Slice& key) const {
  // Parses each internal node's separators in place rather than decoding
  // whole nodes (point lookups dominate store reads and validated
  // writes); the leaf's entries are left to the caller.
  PageNo page = root_;
  for (;;) {
    TCOB_ASSIGN_OR_RETURN(Page * p, pool_->FetchPage(file_, page));
    PageGuard guard(pool_, p);
    if (static_cast<PageType>(static_cast<uint8_t>(p->data[0])) !=
        PageType::kIndex) {
      return Status::Corruption("page " + std::to_string(page) +
                                " is not a btree node");
    }
    if (p->data[1] != 0) return page;
    Slice in(p->data + kNodeHeader, DecodeFixed32(p->data + 8));
    uint32_t n_keys;
    TCOB_RETURN_NOT_OK(GetVarint32(&in, &n_keys));
    // n_keys + 1 child pages, then the separators; descend into the
    // child after every separator <= key (as ChildIndex does).
    const size_t children_bytes = 4 * (static_cast<size_t>(n_keys) + 1);
    if (in.size() < children_bytes) {
      return Status::Corruption("btree node " + std::to_string(page) +
                                " is truncated");
    }
    const char* children = in.data();
    in.RemovePrefix(children_bytes);
    uint32_t child = 0;
    for (; child < n_keys; ++child) {
      Slice separator;
      TCOB_RETURN_NOT_OK(GetLengthPrefixed(&in, &separator));
      if (separator.compare(key) > 0) break;
    }
    page = DecodeFixed32(children + 4 * child);
  }
}

Result<uint64_t> BTree::Get(const Slice& key) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  TCOB_ASSIGN_OR_RETURN(PageNo leaf_page, FindLeaf(key));
  TCOB_ASSIGN_OR_RETURN(Page * p, pool_->FetchPage(file_, leaf_page));
  PageGuard guard(pool_, p);
  // The leaf's entries are sorted: scan them in place up to `key`.
  Slice in(p->data + kNodeHeader, DecodeFixed32(p->data + 8));
  uint32_t n_keys;
  TCOB_RETURN_NOT_OK(GetVarint32(&in, &n_keys));
  for (uint32_t i = 0; i < n_keys; ++i) {
    Slice entry;
    uint64_t value;
    TCOB_RETURN_NOT_OK(GetLengthPrefixed(&in, &entry));
    TCOB_RETURN_NOT_OK(GetVarint64(&in, &value));
    const int order = entry.compare(key);
    if (order == 0) return value;
    if (order > 0) break;
  }
  return Status::NotFound("btree key absent");
}

Status BTree::Delete(const Slice& key) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  TCOB_ASSIGN_OR_RETURN(PageNo leaf_page, FindLeaf(key));
  TCOB_ASSIGN_OR_RETURN(Node leaf, ReadNode(leaf_page));
  int pos = LowerBound(leaf, key);
  if (pos >= static_cast<int>(leaf.keys.size()) ||
      Slice(leaf.keys[pos]) != key) {
    return Status::NotFound("btree key absent");
  }
  leaf.keys.erase(leaf.keys.begin() + pos);
  leaf.values.erase(leaf.values.begin() + pos);
  TCOB_RETURN_NOT_OK(WriteNode(leaf_page, leaf));
  --entry_count_;
  return SaveMeta();
}

Status BTree::Scan(
    const Slice& lower, const Slice& upper,
    const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  return ScanLocked(lower, upper, fn);
}

Status BTree::ScanLocked(
    const Slice& lower, const Slice& upper,
    const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const {
  TCOB_ASSIGN_OR_RETURN(PageNo page, FindLeaf(lower));
  while (page != kInvalidPageNo) {
    TCOB_ASSIGN_OR_RETURN(Node leaf, ReadNode(page));
    int pos = LowerBound(leaf, lower);
    for (int i = pos; i < static_cast<int>(leaf.keys.size()); ++i) {
      Slice key(leaf.keys[i]);
      if (!upper.empty() && key.compare(upper) >= 0) return Status::OK();
      TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(key, leaf.values[i]));
      if (!keep_going) return Status::OK();
    }
    page = leaf.next_leaf;
  }
  return Status::OK();
}

Status BTree::ScanPrefix(
    const Slice& prefix,
    const std::function<Result<bool>(const Slice&, uint64_t)>& fn) const {
  // Upper bound: prefix with the last non-0xFF byte incremented.
  std::string upper = prefix.ToString();
  while (!upper.empty() &&
         static_cast<unsigned char>(upper.back()) == 0xFF) {
    upper.pop_back();
  }
  if (!upper.empty()) {
    upper.back() = static_cast<char>(upper.back() + 1);
  }
  std::shared_lock<std::shared_mutex> lock(latch_);
  return ScanLocked(prefix, Slice(upper), fn);
}

Result<std::pair<std::string, uint64_t>> BTree::Floor(
    const Slice& target) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  PageNo page = root_;
  PageNo fallback_subtree = kInvalidPageNo;
  for (;;) {
    TCOB_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    if (node.is_leaf) {
      // Greatest key <= target within this leaf.
      int pos = LowerBound(node, target);
      if (pos < static_cast<int>(node.keys.size()) &&
          Slice(node.keys[pos]) == target) {
        return std::make_pair(node.keys[pos], node.values[pos]);
      }
      if (pos > 0) {
        return std::make_pair(node.keys[pos - 1], node.values[pos - 1]);
      }
      break;  // everything in this leaf > target; use the fallback subtree
    }
    int idx = ChildIndex(node.keys, target);
    if (idx > 0) fallback_subtree = node.children[idx - 1];
    page = node.children[idx];
  }
  if (fallback_subtree == kInvalidPageNo) {
    return Status::NotFound("no entry <= target");
  }
  // Rightmost entry of the fallback subtree.
  page = fallback_subtree;
  for (;;) {
    TCOB_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    if (node.is_leaf) {
      if (node.keys.empty()) return Status::NotFound("empty fallback leaf");
      return std::make_pair(node.keys.back(), node.values.back());
    }
    page = node.children.back();
  }
}

Result<uint32_t> BTree::Height() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  uint32_t height = 1;
  PageNo page = root_;
  for (;;) {
    TCOB_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    if (node.is_leaf) return height;
    page = node.children[0];
    ++height;
  }
}

Status BTree::VerifyRec(PageNo page, uint32_t depth, const std::string* lower,
                        const std::string* upper, VerifyState* vs) const {
  if (depth > 64) {
    return Status::Corruption("btree deeper than 64 levels (cycle?)");
  }
  TCOB_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  std::string where = "btree node " + std::to_string(page);
  for (size_t i = 0; i < node.keys.size(); ++i) {
    if (i > 0 && node.keys[i] <= node.keys[i - 1]) {
      return Status::Corruption(where + ": keys out of order at " +
                                std::to_string(i));
    }
    if (lower != nullptr && node.keys[i] < *lower) {
      return Status::Corruption(where + ": key below subtree lower bound");
    }
    if (upper != nullptr && node.keys[i] >= *upper) {
      return Status::Corruption(where + ": key above subtree upper bound");
    }
  }
  if (node.is_leaf) {
    if (!node.children.empty() ||
        node.values.size() != node.keys.size()) {
      return Status::Corruption(where + ": malformed leaf");
    }
    if (vs->leaf_depth == 0) {
      vs->leaf_depth = depth;
    } else if (vs->leaf_depth != depth) {
      return Status::Corruption(where + ": leaf at depth " +
                                std::to_string(depth) + ", expected " +
                                std::to_string(vs->leaf_depth));
    }
    vs->entries += node.keys.size();
    vs->leaves.push_back(page);
    return Status::OK();
  }
  if (node.children.size() != node.keys.size() + 1 || !node.values.empty()) {
    return Status::Corruption(where + ": internal node has " +
                              std::to_string(node.children.size()) +
                              " children for " +
                              std::to_string(node.keys.size()) + " keys");
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    // keys[i] is the lowest key under children[i + 1].
    const std::string* child_lower = i == 0 ? lower : &node.keys[i - 1];
    const std::string* child_upper =
        i < node.keys.size() ? &node.keys[i] : upper;
    TCOB_RETURN_NOT_OK(
        VerifyRec(node.children[i], depth + 1, child_lower, child_upper, vs));
  }
  return Status::OK();
}

Status BTree::VerifyStructure() const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  VerifyState vs;
  TCOB_RETURN_NOT_OK(VerifyRec(root_, 1, nullptr, nullptr, &vs));
  if (vs.entries != entry_count_) {
    return Status::Corruption(
        "btree entry count mismatch: meta says " +
        std::to_string(entry_count_) + ", leaves hold " +
        std::to_string(vs.entries));
  }
  // The leaf chain must link the leaves exactly in key order.
  for (size_t i = 0; i < vs.leaves.size(); ++i) {
    TCOB_ASSIGN_OR_RETURN(Node leaf, ReadNode(vs.leaves[i]));
    PageNo expected_next =
        i + 1 < vs.leaves.size() ? vs.leaves[i + 1] : kInvalidPageNo;
    if (leaf.next_leaf != expected_next) {
      return Status::Corruption("btree leaf chain broken at page " +
                                std::to_string(vs.leaves[i]));
    }
  }
  return Status::OK();
}

}  // namespace tcob

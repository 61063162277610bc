#pragma once

#include <cstddef>

namespace afc::sim {

/// Hook for an awaiter that can queue on a WaitList.
struct WaitLink {
  WaitLink* prev = nullptr;
  WaitLink* next = nullptr;
};

/// Intrusive FIFO of suspended awaiters. The nodes are the awaiters
/// themselves (they derive from WaitLink), and an awaiter lives in the
/// suspended coroutine's frame until that coroutine resumes — so a wait
/// allocates nothing and a node leaves from anywhere in the queue in O(1).
/// Link a node from await_suspend and unlink it before its coroutine resumes.
template <class Node>
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }
  Node* front() const { return static_cast<Node*>(head_); }

  void push_back(Node* n) {
    WaitLink* l = n;
    l->prev = tail_;
    l->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = l;
    } else {
      head_ = l;
    }
    tail_ = l;
    size_++;
  }

  Node* pop_front() {
    Node* n = front();
    erase(n);
    return n;
  }

  void erase(Node* n) {
    WaitLink* l = n;
    if (l->prev != nullptr) {
      l->prev->next = l->next;
    } else {
      head_ = l->next;
    }
    if (l->next != nullptr) {
      l->next->prev = l->prev;
    } else {
      tail_ = l->prev;
    }
    l->prev = l->next = nullptr;
    size_--;
  }

 private:
  WaitLink* head_ = nullptr;
  WaitLink* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace afc::sim

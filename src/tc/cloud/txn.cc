#include "tc/cloud/txn.h"

namespace tc::cloud {

void Put(BinaryWriter& w, const SnapshotDescriptor& v) {
  PutFields(w, v.base_seq);
}

void Put(BinaryWriter& w, const SnapshotRead& v) {
  PutFields(w, v.data, v.version, v.commit_seq);
}

void Put(BinaryWriter& w, const TxnRead& v) { PutFields(w, v.id, v.version); }

void Put(BinaryWriter& w, const TxnWrite& v) {
  PutFields(w, v.id, v.data, v.base_version);
}

void Put(BinaryWriter& w, const TxnRequest& v) {
  PutFields(w, v.token, v.snapshot, v.reads, v.writes);
}

void Put(BinaryWriter& w, const TxnOutcome& v) {
  PutFields(w, v.status, v.committed, v.replayed, v.commit_seq, v.versions,
            v.conflict_id, v.delay_us, v.fault_ordinal);
}

Status Get(BinaryReader& r, SnapshotDescriptor* v) {
  return GetFields(r, &v->base_seq);
}

Status Get(BinaryReader& r, SnapshotRead* v) {
  return GetFields(r, &v->data, &v->version, &v->commit_seq);
}

Status Get(BinaryReader& r, TxnRead* v) {
  return GetFields(r, &v->id, &v->version);
}

Status Get(BinaryReader& r, TxnWrite* v) {
  return GetFields(r, &v->id, &v->data, &v->base_version);
}

Status Get(BinaryReader& r, TxnRequest* v) {
  return GetFields(r, &v->token, &v->snapshot, &v->reads, &v->writes);
}

Status Get(BinaryReader& r, TxnOutcome* v) {
  return GetFields(r, &v->status, &v->committed, &v->replayed,
                   &v->commit_seq, &v->versions, &v->conflict_id,
                   &v->delay_us, &v->fault_ordinal);
}

}  // namespace tc::cloud

"""A recommender spanning all three data models.

Review documents are joined and projected into a ratings matrix, a couple of
matrix-factorization steps fill in the blanks, and the dense predictions join
back against a relational interest table. The planner cuts the operator DAG
into single-model partitions; the inter-model hops become conversion or join
nodes between them.

Run with:  python3 demos/05_multimodel_pipeline.py
"""

import json
import tempfile

from multimodel import Engine, EngineConfig, format_result

SCRIPT = """\
order, review = openCollection('order'), openCollection('review')
ratings = review.join(order, 'review.oid = order.oid').project('cid, pid, rating')
X = ratings.toArray({'cid', 'pid'}, {'rating'})

rank = 4
n_cust, n_prod = openTable('customer').count(), openTable('product').count()
W, H = rand({n_cust, rank}), rand({rank, n_prod})
for i in range(2):
  W = W * ((X @ H.T) / (W @ H @ H.T))
  H = H * ((W.T @ X) / (W.T @ W @ H))

interest = openTable('interest')
filled = W @ H
picks = filled.join(interest, 'interest.cid = filled.cid AND interest.pid = filled.pid', RELATIONAL)
execute(picks.filter('cid = 2').sort('rating DESC').limit(5))
"""


def make_data(d: str) -> None:
    n_cust, n_prod = 8, 6
    with open(f"{d}/customer.csv", "w") as f:
        f.write("cid,name\n")
        f.writelines(f"{c},c{c}\n" for c in range(n_cust))
    with open(f"{d}/product.csv", "w") as f:
        f.write("pid,label\n")
        f.writelines(f"{p},p{p}\n" for p in range(n_prod))
    with open(f"{d}/order.jsonl", "w") as f:
        f.writelines(json.dumps({"oid": 500 + c, "cid": c}) + "\n"
                     for c in range(n_cust))
    # every customer rated every other product; the rest stay blank
    with open(f"{d}/review.jsonl", "w") as f:
        for c in range(n_cust):
            for p in range(c % 2, n_prod, 2):
                doc = {"oid": 500 + c, "pid": p,
                       "rating": 1.0 + ((c * 3 + p * 5) % 8) / 2.0}
                f.write(json.dumps(doc) + "\n")
    with open(f"{d}/interest.csv", "w") as f:
        f.write("cid,pid\n")
        f.writelines(f"2,{p}\n" for p in range(n_prod))


with tempfile.TemporaryDirectory() as data:
    make_data(data)
    eng = Engine(EngineConfig(data_dir=data, seed=13))

    doc = eng.explain(SCRIPT)
    op_of = {n["id"]: n["op"] for n in doc["nodes"]}
    print(f"{len(doc['nodes'])} operator nodes ({len(doc['bound']['nodes'])} "
          f"as bound, before the plan rewrites) in "
          f"{len(doc['partitions'])} partitions:")
    for p in doc["partitions"]:
        ops = [op_of[n] for n in p["nodes"]]
        shown = ", ".join(ops[:5]) + (", ..." if len(ops) > 5 else "")
        print(f"  [{p['index']}] {p['model']:<11} {len(ops):2d} nodes: {shown}")
    print("execution order:", doc["order"])

    print("\ntop predicted products for customer 2:")
    print(format_result(eng.run(SCRIPT)))
    for s in eng.join_stats:
        print(f"inter-model join used {s.strategy}: "
              f"{s.n_records} probes, {s.tile_pins} tile pins")

"""Query scripts over tables and collections.

Pipelines are written in a small subset of Python, read by Python's own
parser: open a dataset, chain method calls, and mark exactly one expression
with execute(). Binding turns the script into a logical operator DAG;
everything not feeding the executed expression is dropped before anything
runs, and any Python outside the subset is refused with its line.

Run with:  python3 demos/03_scripts_and_queries.py
"""

import json
import tempfile

from multimodel import Engine, EngineConfig, format_result

CITIES = """\
name,country,pop
Lyon,fr,522
Metz,fr,118
Graz,at,290
Linz,at,206
Wels,at,62
"""

VISITS = [
    {"who": "ana", "stops": ["Lyon", "Graz"], "days": 9},
    {"who": "bo", "stops": ["Graz", "Linz", "Wels"], "days": 12},
    {"who": "cy", "stops": ["Metz"], "days": 2},
]

with tempfile.TemporaryDirectory() as data:
    with open(f"{data}/city.csv", "w") as f:
        f.write(CITIES)
    with open(f"{data}/visit.jsonl", "w") as f:
        f.writelines(json.dumps(d) + "\n" for d in VISITS)

    eng = Engine(EngineConfig(data_dir=data))

    print("-- tables: filter / sort / limit")
    res = eng.run(
        "c = openTable('city')\n"
        "big = c.filter('pop >= 150 AND country = \\'at\\'')\n"
        "execute(big.sort('pop DESC').limit(2))\n")
    print(format_result(res))

    print("-- collections: unwind an array field, then aggregate")
    res = eng.run(
        "v = openCollection('visit')\n"
        "per_stop = v.unwind('stops')\n"
        "execute(per_stop.aggregate('stops', 'count(*) as trips, sum(days) as d'))\n")
    print(format_result(res))

    # loops unroll at bind time; assignments just rebind names
    print("-- a loop applying the same filter three times is still one scan")
    plan, target = eng.plan_script(
        "c = openTable('city')\n"
        "for i in range(3):\n"
        "    c = c.filter('pop >= 100')\n"
        "execute(c.count())\n")
    print(f"plan has {len(plan.nodes)} nodes "
          f"({[n.op for n in plan.nodes]})")
    print("rows passing:", eng.run_plan(plan, target).rows[0][0])

"""centurysim — a reproduction of "Century-Scale Smart Infrastructure"
(Jagtap, Bhaskar, Pannuto; HotOS '21) as a simulation library.

The paper asks what devices, gateways, network architectures, and
management must look like for sensing systems designed to operate for
decades.  This library models every layer of that stack — energy
harvesting, component reliability, radios, gateways, backhauls,
obsolescence, economics, and city-scale deployment — and provides a
harness for the paper's 50-year experiment plus benchmarks regenerating
each of its quantitative claims.

Quick start::

    from repro.experiment import run_scenario
    from repro.core import units

    result = run_scenario("as-designed", horizon=units.years(10.0))
    print("\\n".join(result.summary_lines()))

Subpackages
-----------
``import repro`` loads none of them: import the one you use (``from
repro.experiment import run_scenario``), so each entry point pays only
for the layers it runs.

``core``          discrete-event kernel, hierarchy, lifetimes, policies
``reliability``   hazard models, component lifetimes, survival analysis
``energy``        harvesters, storage, intermittency
``radio``         link model, 802.15.4 and LoRa PHYs
``net``           devices, gateways, backhauls, cloud, Helium
``obsolescence``  obsolescence taxonomy, tech timelines, upgrade policy
``econ``          costs, TCO, tipping point, data credits
``city``          asset inventories, rollouts, Seoul workload
``analysis``      AS concentration, uptime, metrics, diary
``experiment``    the §4 fifty-year experiment and scenarios
``faults``        deterministic fault injection + invariant auditing
``obs``           deterministic telemetry: metrics, snapshots, exporters
``runtime``       deterministic parallel Monte-Carlo execution
``serve``         scenario-as-a-service HTTP endpoint, content-keyed cache
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

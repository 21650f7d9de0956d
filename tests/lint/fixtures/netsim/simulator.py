"""DET001 positive: netsim/simulator.py gets no wall-clock exemption.

Virtual time is ``Simulator.now``; the simulator itself never reads the
host clock, so a clock read here is flagged like anywhere else.
"""

import time


def host_clock():
    return time.time()

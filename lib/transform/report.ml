type t = {
  sites_considered : int;
  sites_applied : int;
  rejected_stale : int;
  rejected_legality : int;
  rejected_convertibility : int;
  instrs_hoisted : int;
  instrs_converted : int;
  cdp_inserted : int;
  switch_branches_inserted : int;
}

let zero =
  {
    sites_considered = 0;
    sites_applied = 0;
    rejected_stale = 0;
    rejected_legality = 0;
    rejected_convertibility = 0;
    instrs_hoisted = 0;
    instrs_converted = 0;
    cdp_inserted = 0;
    switch_branches_inserted = 0;
  }

let add a b =
  {
    sites_considered = a.sites_considered + b.sites_considered;
    sites_applied = a.sites_applied + b.sites_applied;
    rejected_stale = a.rejected_stale + b.rejected_stale;
    rejected_legality = a.rejected_legality + b.rejected_legality;
    rejected_convertibility =
      a.rejected_convertibility + b.rejected_convertibility;
    instrs_hoisted = a.instrs_hoisted + b.instrs_hoisted;
    instrs_converted = a.instrs_converted + b.instrs_converted;
    cdp_inserted = a.cdp_inserted + b.cdp_inserted;
    switch_branches_inserted =
      a.switch_branches_inserted + b.switch_branches_inserted;
  }

let fields r =
  [
    ("sites_considered", r.sites_considered);
    ("sites_applied", r.sites_applied);
    ("rejected_stale", r.rejected_stale);
    ("rejected_legality", r.rejected_legality);
    ("rejected_convertibility", r.rejected_convertibility);
    ("instrs_hoisted", r.instrs_hoisted);
    ("instrs_converted", r.instrs_converted);
    ("cdp_inserted", r.cdp_inserted);
    ("switch_branches_inserted", r.switch_branches_inserted);
  ]
